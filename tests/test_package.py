"""The names the package exports."""

from __future__ import annotations

import braidqp

EXPORTED = {
    "Arrow",
    "ArtinStructure",
    "BraidWord",
    "DualStructure",
    "FormWitness",
    "GarsideStructure",
    "NormalForm",
    "PAForm",
    "RecognitionQuery",
    "RecognitionResult",
    "ResourceCapExceeded",
    "Simple",
    "SlidingCircuits",
    "StructureId",
    "StructureKind",
    "WordSyntaxError",
    "algebraic_length",
    "are_conjugate",
    "artin_structure",
    "cycling",
    "cycling_orbit",
    "cyclic_sliding",
    "decycling",
    "decycling_orbit",
    "dual_structure",
    "final_factor",
    "in_sliding_circuit",
    "initial_factor",
    "inverse_perm",
    "is_quasipositive_3braid",
    "match_power_form",
    "match_product_form",
    "min_sc_conjugator",
    "mult",
    "parse_word",
    "preferred_prefix",
    "qp3",
    "qp_half_twist_power",
    "rebuild_witness",
    "recognize",
    "slide_to_circuit",
    "sliding_circuits",
    "structure_for",
    "summit_length_filter",
    "to_dual",
    "to_pa_form",
    "to_standard",
    "verify_witness",
    "word_to_text",
}


def test_all_is_the_49_exported_names():
    assert len(braidqp.__all__) == len(set(braidqp.__all__)) == 49
    assert set(braidqp.__all__) == EXPORTED
    for name in braidqp.__all__:
        assert getattr(braidqp, name) is not None
