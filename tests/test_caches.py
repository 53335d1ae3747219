"""Every ``functools.lru_cache`` in lingame has a finite ``maxsize``, so
no cache grows with each new group, player count or d for the life of
the process; the cached arrays shared between callers are read-only; and
the tables of a group's or a field's value are built once, for every
instance equal to it."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import lingame
from lingame import boxworld, games, qbounds
from lingame.algebra import AbelianGroup, FiniteField


def _lru_caches():
    """Every lru_cache wrapper at module or class level in lingame's
    modules, by the qualified name where it is defined."""
    found = {}
    for info in pkgutil.iter_modules(lingame.__path__):
        module = importlib.import_module(f"lingame.{info.name}")
        classes = inspect.getmembers(module, inspect.isclass)
        spaces = [module] + [c for _, c in classes
                             if c.__module__ == module.__name__]
        for space in spaces:
            for value in vars(space).values():
                if hasattr(value, "cache_parameters"):
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def test_the_walk_finds_the_known_caches():
    names = set(_lru_caches())
    assert {"lingame.qbounds._split_layouts", "lingame.games.answer_sums",
            "lingame.boxworld._vandermonde", "lingame.boxworld._newton",
            "lingame.cli._build_parser",
            "lingame.diew._phase_layout", "lingame.qbounds.shared_sides",
            "lingame.algebra._character_table",
            "lingame.algebra._character_pairs", "lingame.algebra._mul_table",
            "lingame.games._chsh_indices",
            "lingame.games._ghz3_indices"} <= names


@pytest.mark.parametrize("name", sorted(_lru_caches()))
def test_every_cache_is_bounded(name):
    maxsize = _lru_caches()[name].cache_parameters()["maxsize"]
    assert maxsize is not None and maxsize > 0


@pytest.mark.parametrize("cached", [
    lambda: boxworld._vandermonde(5), lambda: boxworld._vandermonde_inverse(5),
    lambda: boxworld._newton(5)[0], lambda: boxworld._newton(5)[1],
    lambda: games.answer_sums(AbelianGroup((3,)), 2),
    lambda: AbelianGroup((2, 3)).character_table(),
    lambda: FiniteField(2, 2).mul_table,
    lambda: games._chsh_indices(FiniteField(3), 3), games._ghz3_indices],
    ids=["vandermonde", "vandermonde_inverse", "newton_forward",
         "newton_back", "answer_sums", "character_table", "mul_table",
         "chsh_indices", "ghz3_indices"])
def test_shared_cached_arrays_are_read_only(cached):
    array = cached()
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 0


def test_player_classes_key_the_shared_sides_cache():
    """A game's classes are a tuple, so ``shared_sides`` can key on them
    and no caller can change them in place."""
    classes = games.chsh_game(3, 2).player_classes
    assert type(classes) is tuple and classes == (0, 0, 0)
    assert qbounds.shared_sides(classes) is qbounds.shared_sides((0, 0, 0))


def test_groups_built_apart_share_their_character_tables():
    first, second = AbelianGroup((3,)), AbelianGroup((3,))
    assert first is not second
    assert second.character_table() is first.character_table()
    for a, b in zip(first.character_pairs, second.character_pairs):
        assert a is b
        if hasattr(a, "flags"):
            assert not a.flags.writeable


def test_fields_built_apart_share_their_multiplication_table():
    first, second = FiniteField(3), FiniteField(3)
    assert first is not second
    assert second.mul_table is first.mul_table
    assert not first.mul_table.flags.writeable
    with pytest.raises(ValueError):
        first.mul_table[0, 0] = 1
    assert FiniteField(2, 2, (1, 1, 1)).mul_table is FiniteField(2, 2).mul_table


def test_an_instance_fetches_its_shared_table_once(monkeypatch):
    """A warm group or field reads its tables off the instance, without
    going back to the caches."""
    group, field = AbelianGroup((5,)), FiniteField(5)
    tables = group.character_table(), group.character_pairs, field.mul_table

    def refused(*args):
        raise AssertionError("the shared cache was asked again")

    for name in ("_character_table", "_character_pairs", "_mul_table"):
        monkeypatch.setattr(f"lingame.algebra.{name}", refused)
    assert group.character_table() is tables[0]
    assert group.character_pairs is tables[1]
    assert field.mul_table is tables[2]


def test_a_game_holds_the_shared_chsh_predicate_without_a_copy():
    shared = games._chsh_indices(FiniteField(3), 3)
    assert games.chsh_game(3, 3).predicate_indices() is shared


def test_a_game_copies_a_writable_predicate_and_leaves_it_writable():
    f_index = np.zeros(4, dtype=np.intp)
    game = games.LinearGame(AbelianGroup((2,)), (2, 2), f_index, [1] * 4, 4)
    assert f_index.flags.writeable
    f_index[0] = 1
    assert game.predicate_indices()[0] == 0
