"""The package's public surface."""

import hyperopic
import hyperopic.game


def test_every_exported_name_resolves():
    assert len(hyperopic.__all__) == len(set(hyperopic.__all__))
    for name in hyperopic.__all__:
        assert getattr(hyperopic, name) is not None, name


def test_the_set_based_game_stays_out_of_the_package():
    # TransitionTable is the package's one belief engine; the set-based
    # game is the test reference in oracles.py
    for name in ("cop_turn_successors", "robber_turn_successors",
                 "initial_states", "is_visible"):
        assert not hasattr(hyperopic.game, name), name
    for name in ("BeliefState", "Observation", "INVISIBLE", "advance_belief",
                 "initial_belief",
                 # helpers only the tests needed; oracles.py holds references
                 "blocks", "is_two_connected", "tree_canonical_form",
                 "FamilySpec", "generate", "center"):
        assert name not in hyperopic.__all__, name
