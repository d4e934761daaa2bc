"""transformPT candidate dedup: on the plan term, one entry per plan.

Pushing independent segments in either order builds the *same* term:
the push renamer's ``_pN`` suffix names the union part a segment is
pushed into, not the order of the pushes.  ``transform_candidates``
therefore dedups on the term's structural hash and equality, and the
canonical fingerprint (:mod:`repro.plans.canonical`) — the id that
leaves the process — is what these tests use to pin the candidate
counts and the name-invariance of the candidate set.
"""

from tests.test_core_transform import (
    join_pipeline,
    make_fix,
    selection_pipeline,
)

from repro.core.transform import transform_candidates
from repro.plans import UnionOp
from repro.plans.canonical import alpha_rename, canonical_fingerprint

RENAMING = {
    "i": "r",
    "x": "y",
    "m": "mm",
    "w": "ww",
    "ins": "instr",
    "d": "dd",
    "c": "cc",
}


def test_alpha_variants_share_fingerprint():
    plan = selection_pipeline(make_fix())
    variant = alpha_rename(plan, RENAMING)
    assert plan != variant  # structurally distinct...
    assert canonical_fingerprint(plan) == canonical_fingerprint(variant)


def test_renaming_is_cost_relevant_only_when_structural():
    """Two plans that differ in shape (selection vs join pipeline) must
    not collide."""
    a = selection_pipeline(make_fix())
    b = join_pipeline(make_fix())
    assert canonical_fingerprint(a) != canonical_fingerprint(b)


def test_candidate_count_two_independent_sites():
    """Two independently pushable segments produce exactly four
    candidates — original, each single push, both — regardless of the
    order the closure discovers them in (a closure costing push orders
    separately would return more)."""
    plan = UnionOp(selection_pipeline(make_fix()), join_pipeline(make_fix()))
    candidates = transform_candidates(plan)
    assert len(candidates) == 4
    descriptions = [description for description, _plan in candidates]
    assert descriptions[0] == "original"


def test_candidates_have_distinct_fingerprints():
    plan = UnionOp(selection_pipeline(make_fix()), join_pipeline(make_fix()))
    fingerprints = [
        canonical_fingerprint(candidate)
        for _description, candidate in transform_candidates(plan)
    ]
    assert len(fingerprints) == len(set(fingerprints))


def test_candidate_set_is_name_invariant():
    """The candidate set of an alpha-renamed plan is the alpha-renamed
    candidate set: transformPT does the same costing work however the
    upstream steps happened to name variables."""
    plan = selection_pipeline(make_fix())
    variant = alpha_rename(plan, RENAMING)
    original_set = {
        canonical_fingerprint(candidate)
        for _description, candidate in transform_candidates(plan)
    }
    variant_set = {
        canonical_fingerprint(candidate)
        for _description, candidate in transform_candidates(variant)
    }
    assert len(original_set) > 1  # the push actually applied
    assert original_set == variant_set
