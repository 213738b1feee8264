"""The package's public surface and its import layers."""

import ast
from pathlib import Path

import hyperopic
import hyperopic.check
import hyperopic.game


def test_every_exported_name_resolves():
    assert len(hyperopic.__all__) == len(set(hyperopic.__all__))
    for name in hyperopic.__all__:
        assert getattr(hyperopic, name) is not None, name


def test_the_set_based_game_stays_out_of_the_package():
    # TransitionTable is the package's one belief engine for search; the
    # set-based game lives only in hyperopic.check, the certificate checker,
    # which the tests also use as their reference game
    for name in ("cop_turn_successors", "robber_turn_successors",
                 "initial_states", "is_visible", "sightings", "play_round"):
        assert not hasattr(hyperopic.game, name), name
    for name in ("sightings", "robber_step", "play_round"):
        assert hasattr(hyperopic.check, name), name
        assert name not in hyperopic.__all__, name
    assert "check_certificate" in hyperopic.__all__
    for name in ("BeliefState", "Observation", "INVISIBLE", "advance_belief",
                 "initial_belief",
                 # helpers only the tests needed; oracles.py holds references
                 "blocks", "is_two_connected", "tree_canonical_form",
                 "FamilySpec", "generate", "center"):
        assert name not in hyperopic.__all__, name


def test_the_test_oracles_import_no_game_module():
    # the reference game in oracles.py is hyperopic.check's, with its own
    # joint moves: nothing of the engine it checks
    path = Path(__file__).parent / "oracles.py"
    imports = _package_imports(ast.parse(path.read_text(encoding="utf8")))
    assert imports == [(None, "check")], imports


# (module, function, imported module) of the only package imports made at
# call time: the atlas table, loaded on first use, and the audit registry,
# which the CLI's other commands do not load
_CALL_TIME_IMPORTS = {
    ("audits", "_connected_graphs", "_atlas"),
    ("cli", "_cmd_audit", "audits"),
}


def _package_imports(tree):
    """(innermost enclosing function or None, package module) for each
    import of a package module in a module's syntax tree."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            mods = []
            if isinstance(child, ast.Import):
                mods = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                mods = [child.module] if child.module else [a.name for a in child.names]
                if child.level:
                    mods = [f"hyperopic.{m}" for m in mods]
            found.extend(
                (fn, m.removeprefix("hyperopic."))
                for m in mods if m.split(".")[0] == "hyperopic"
            )
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_fn else fn)

    visit(tree, None)
    return found


def test_the_package_layers():
    # the cache stores records and the checker plays the game on its own,
    # so neither imports the package; every other package import is made
    # once, at module level, outside the exceptions, and no module imports
    # itself back through others, whenever its imports run
    src = Path(hyperopic.__file__).parent
    call_time = set()
    imported = {}
    for path in sorted(src.glob("*.py")):
        imports = _package_imports(ast.parse(path.read_text(encoding="utf8")))
        if path.stem in ("cache", "check"):
            assert imports == [], (path.stem, imports)
        call_time |= {(path.stem, fn, m) for fn, m in imports if fn is not None}
        imported[path.stem] = {m for _, m in imports}
    assert call_time == _CALL_TIME_IMPORTS
    loaded = set()
    while len(loaded) < len(imported):
        ready = {m for m, deps in imported.items()
                 if m not in loaded and deps <= loaded}
        assert ready, f"import cycle among {sorted(set(imported) - loaded)}"
        loaded |= ready


# what the graph memoises about itself; no other module may read or fill it
_GRAPH_SLOTS = {
    "_frames", "_frame_tables", "_growth", "_nbr_mask", "_matching",
    "_automorphisms",
}


def test_only_the_graph_touches_its_memo_slots():
    src = Path(hyperopic.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.stem == "graph":
            continue
        tree = ast.parse(path.read_text(encoding="utf8"))
        touched = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in _GRAPH_SLOTS
        }
        assert not touched, (path.name, touched)
