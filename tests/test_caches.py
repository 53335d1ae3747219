"""Every ``functools.lru_cache`` in lingame has a finite ``maxsize``, so
no cache grows with each new group, player count or d for the life of
the process; and the cached arrays shared between callers are read-only."""

import importlib
import inspect
import pkgutil

import pytest

import lingame
from lingame import boxworld, games, qbounds
from lingame.algebra import AbelianGroup


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
            "lingame.boxworld._vandermonde", "lingame.cli._build_parser",
            "lingame.diew._phase_layout", "lingame.qbounds.shared_sides"} <= names


@pytest.mark.parametrize("name", sorted(_lru_caches()))
def test_every_cache_is_bounded(name):
    maxsize = _lru_caches()[name].cache_parameters()["maxsize"]
    assert maxsize is not None and maxsize > 0


@pytest.mark.parametrize("cached", [
    lambda: boxworld._vandermonde(5), lambda: boxworld._vandermonde_inverse(5),
    lambda: boxworld._derived_interpolators(5),
    lambda: games.answer_sums(AbelianGroup((3,)), 2)],
    ids=["vandermonde", "vandermonde_inverse", "derived_interpolators",
         "answer_sums"])
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
