"""Canonical-parameter sorts for a single formula with a declared variable split.

Parameter tuples are quotiented by the pseudo-metric
max over free-tuples of |phi(free, params) - phi(free, params')|;
the expansion adds a sort of classes, its metric symbol, and a predicate
recovering phi through class representatives.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import StructuralError
from .language import (
    Atom,
    IDENTITY,
    Op,
    PredDecl,
    Quant,
    SortDecl,
    Var,
    infer_modulus,
)
from .structures import (
    FiniteStructure,
    PhiInstance,
    ScaledTable,
    equal_classes,
    eval_formula,
    sup_distances,
    validate,
)

# the names of the new sort, its metric and the class predicate
SORT_NAME, METRIC_NAME, PRED_NAME = "S_phi", "d_phi", "P_phi"


class ImaginaryExpansion(NamedTuple):
    instance: PhiInstance
    class_members: list  # list of lists of y-tuple indices
    class_names: list
    representatives: list  # y-tuple (of carrier indices) per class
    projection: dict  # y-tuple index -> class index
    expanded: FiniteStructure


def build_imaginary(inst: PhiInstance) -> ImaginaryExpansion:
    """Expand M with the canonical-parameter sort for phi under the instance's split.

    The new sort's elements are the classes of parameter tuples at
    pseudo-distance zero, the `equal_classes` of the value columns, each
    represented by its first member; the class predicate has identity
    modulus in the class argument and inferred moduli in the free arguments.
    """
    M, phi, split = inst.M, inst.phi, inst.split
    report = validate(M)
    if not report.valid:
        raise StructuralError(f"base structure fails validation: {report.violations[0]}")
    for name in (SORT_NAME, METRIC_NAME, PRED_NAME):
        if name in M.sig.functions or name in M.sig.predicates or name in M.sig.metric_sort \
                or name in M.sig.sorts:
            raise StructuralError(f"name {name!r} already used in the signature")

    num, yts = inst.num, inst.yts
    columns = [tuple(row[yi] for row in num) for yi in range(len(yts))]

    class_members = equal_classes(columns)
    projection = {yi: ci for ci, members in enumerate(class_members) for yi in members}
    representatives = [members[0] for members in class_members]
    class_names = ["[" + ",".join(inst.y_names[rep]) + "]" for rep in representatives]

    x_moduli = tuple(infer_modulus(phi, M.sig, name) for name, _ in split.x)
    pred_decl = PredDecl(PRED_NAME,
                         tuple(s for _, s in split.x) + (SORT_NAME,),
                         x_moduli + (IDENTITY,))
    new_sig = M.sig.extended(sorts=[SortDecl(SORT_NAME, METRIC_NAME)],
                             predicates=[pred_decl])

    # row-major in (x-tuple, class), since xts enumerates x-tuples lexicographically
    pred_values = [row[rep] for row in num for rep in representatives]
    d_phi = sup_distances([columns[rep] for rep in representatives])

    carriers = dict(M.carriers)
    carriers[SORT_NAME] = class_names
    metric_table = dict(M.metric_table)
    metric_table[SORT_NAME] = ScaledTable.over(inst.scale, [d for row in d_phi for d in row])
    predicate_table = dict(M.predicate_table)
    predicate_table[PRED_NAME] = ScaledTable.over(inst.scale, pred_values)
    expanded = FiniteStructure(new_sig, carriers, metric_table, M.function_table,
                               predicate_table)
    return ImaginaryExpansion(inst, class_members, class_names,
                              [yts[r] for r in representatives], projection, expanded)


def tphi_sentences(E: ImaginaryExpansion) -> list[tuple[str, object]]:
    """The three defining sentences of the canonical-parameter theory.

    All three evaluate to exactly 0 on every built expansion.
    """
    phi, split = E.instance.phi, E.instance.split
    used = {n for n, _ in split.x} | {n for n, _ in split.y}
    z1, z2 = "z_cp1", "z_cp2"
    if z1 in used or z2 in used:
        z1, z2 = "z_cp1_", "z_cp2_"

    def p_phi_atom(zname: str):
        args = tuple(Var(n, s) for n, s in split.x) + (Var(zname, SORT_NAME),)
        return Atom(PRED_NAME, args)

    def prefix(kind, vars_, body):
        for name, sort in reversed(vars_):
            body = Quant(kind, name, sort, body)
        return body

    # sup_zz' | d_phi(z,z') - sup_x |P(x,z) - P(x,z')| |
    inner = prefix("sup", split.x, Op("absdiff", (p_phi_atom(z1), p_phi_atom(z2))))
    s1 = Quant("sup", z1, SORT_NAME,
               Quant("sup", z2, SORT_NAME,
                     Op("absdiff", (Atom(METRIC_NAME,
                                         (Var(z1, SORT_NAME), Var(z2, SORT_NAME))),
                                    inner))))
    # sup_z inf_y sup_x |phi(x,y) - P(x,z)|
    mismatch = prefix("sup", split.x, Op("absdiff", (phi, p_phi_atom(z1))))
    s2 = Quant("sup", z1, SORT_NAME, prefix("inf", split.y, mismatch))
    # sup_y inf_z sup_x |phi(x,y) - P(x,z)|
    s3 = prefix("sup", split.y, Quant("inf", z1, SORT_NAME, mismatch))
    return [("metric_matches_sup_difference", s1),
            ("every_class_is_a_parameter", s2),
            ("every_parameter_has_a_class", s3)]


def verify_tphi(E: ImaginaryExpansion):
    """Evaluate the three canonical-parameter sentences on the expansion."""
    rows = []
    for name, sentence in tphi_sentences(E):
        value = eval_formula(E.expanded, {}, sentence)
        rows.append({"name": name, "value": value, "holds": value == 0})
    return all(r["holds"] for r in rows), rows
