"""unieq: finite decision procedures for simultaneous unitary equivalences.

Given finite families of n-by-n complex matrix pairs, decide with finitely
many computations whether a single unitary U (together with its entrywise
conjugate) realizes unitary similarity and/or congruence for every pair,
and produce a checkable certificate whenever the answer is no.
"""

from .numerics import (
    EXACT,
    FLOAT,
    GaussianRational,
    Matrix,
    ModeMismatchError,
    block,
    common_scale,
    identity,
    zeros,
)
from .words import (
    DEDUP_CYCLIC,
    DEDUP_CYCLIC_STAR,
    DEDUP_NONE,
    Word,
    empty_word,
    enumerate_words,
    eval_word,
    iter_word_traces,
    pappacena_bound,
    word_count,
    word_trace_spectrum,
)
from .gadgets import (
    Gadget,
    GadgetLayout,
    Placement,
    ProblemInstance,
    build_congruence_K,
    build_congruence_K_prime,
    build_general_gadget,
    build_real_letters,
    build_similarity_gadget,
    class_slots,
    congruence_triple,
    plan_layout,
)
from .engines import (
    BudgetExceededError,
    DependencyCertificate,
    TraceCertificate,
    Verdict,
    algebra_closure,
    decision_letters,
    floor_length_bound,
    simultaneously_unitarily_similar,
    solve_general,
    specht_brute,
    unitarily_congruent,
    unitarily_similar,
    verify_witness,
)
from .instances import (
    GeneratedInstance,
    intertwiner_space,
    intertwiner_space_info,
    make_yes_instance,
    perturb_to_no,
    random_unitary,
)

__version__ = "0.1.0"
