"""The single authoritative algorithm registry."""

import pytest

from repro.core.engine import JoinAlgorithm
from repro.core.spec import JoinSpec
from repro.plan import (ALGORITHMS, AUTO, AUTO_CANDIDATES,
                        algorithm_choices, algorithm_names,
                        make_algorithm, validate_algorithm)


class TestRegistry:
    def test_paper_algorithms_present(self):
        for name in ("sj1", "sj2", "sj3", "sj4", "sj5"):
            assert name in ALGORITHMS

    def test_names_sorted_and_concrete(self):
        names = algorithm_names()
        assert list(names) == sorted(ALGORITHMS)
        assert AUTO not in names

    def test_choices_are_names_plus_auto(self):
        assert algorithm_choices() == algorithm_names() + (AUTO,)

    def test_auto_candidates_are_registered(self):
        for name in AUTO_CANDIDATES:
            assert name in ALGORITHMS


class TestValidateAlgorithm:
    def test_normalizes_case(self):
        assert validate_algorithm("SJ4") == "sj4"
        assert validate_algorithm("Auto") == "auto"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown join algorithm"):
            validate_algorithm("sj9")

    def test_error_lists_choices(self):
        with pytest.raises(ValueError, match="auto"):
            validate_algorithm("nope")


class TestMakeAlgorithm:
    def test_instantiates_every_concrete_name(self):
        for name in algorithm_names():
            assert isinstance(make_algorithm(name), JoinAlgorithm)

    def test_auto_is_not_instantiable(self):
        with pytest.raises(ValueError, match="plan_join"):
            make_algorithm("auto")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown join algorithm"):
            make_algorithm("sj0")


class TestSpecAcceptsRegistry:
    def test_spec_accepts_every_choice(self):
        for name in algorithm_choices():
            assert JoinSpec(algorithm=name).algorithm == name

    def test_spec_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown join algorithm"):
            JoinSpec(algorithm="sj9")


class TestCLIFromRegistry:
    def test_join_algorithm_choices_generated(self):
        from repro.cli import _build_parser
        parser = _build_parser()
        args = parser.parse_args(["join", "l", "r", "--algorithm",
                                  "auto"])
        assert args.algorithm == "auto"

    def test_query_algorithm_choices_generated(self):
        from repro.cli import _build_parser
        parser = _build_parser()
        args = parser.parse_args(
            ["query", "--connect", "h:1", "--join", "a", "b",
             "--algorithm", "auto", "--explain"])
        assert args.algorithm == "auto"
        assert args.explain
