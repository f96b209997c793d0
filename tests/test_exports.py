"""The public API: every name in weilfit.__all__ resolves, so a stale export
fails here and not in a user's import, and names removed from the API stay
removed."""

import dataclasses

import weilfit


def _star_import():
    namespace = {}
    exec("from weilfit import *", namespace)
    return namespace


def test_every_exported_name_resolves():
    namespace = _star_import()
    assert sorted(set(weilfit.__all__) - namespace.keys()) == []
    assert len(set(weilfit.__all__)) == len(weilfit.__all__)


def test_removed_names_do_not_resolve():
    # weil_grid returns the SampleSet mc_sample returns; evaluate_fit and
    # evaluate_expansions evaluate expansions; check_gram_bounds' caller
    # already has the argument the report used to echo
    assert {"WeilGrid", "evaluate_expansion"}.isdisjoint(_star_import())
    assert not hasattr(weilfit.pointgen, "WeilGrid")
    assert not hasattr(weilfit.polybasis, "evaluate_expansion")
    assert type(weilfit.weil_grid(7, 1)) is weilfit.SampleSet
    assert not hasattr(weilfit.weil_grid(7, 1), "n_points")
    assert "restricted_to_nonzero_indices" not in {
        f.name for f in dataclasses.fields(weilfit.GramBoundReport)}
