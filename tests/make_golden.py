"""Write tests/data/closed_form_golden.json: closed-form outputs, bit for bit.

    PYTHONPATH=src python tests/make_golden.py

Evaluates, for 50 admissible parameter sets drawn from a wide box, every
closed-form entry point of `crackqc.effective` in float at two (n, m) pairs:
`limits`, the four models' (kappa, eta), the interface-matrix QC form and
the leading coefficients of the three expansions.  Parameters and
results are stored as `float.hex` strings, so
`tests/test_effective.py::test_golden_outputs_bit_for_bit` can demand every
result bit for bit.

Regenerate only from a tree whose closed forms are trusted, and only when a
change is meant to move their bits; a refactor that should move none is
checked against the file as it stands.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

from crackqc import effective as eff
from crackqc.material import ModelKind, ParameterError, validate

GOLDEN = Path(__file__).resolve().parent / "data" / "closed_form_golden.json"
SEED = 20261020
N_SETS = 50
U_CUT = 0.5
# (n, m): the smallest QC interface one site from the tip, where the
# z0^(n-m) terms weigh most, and a wide gap at large n.
INDICES = ((4, 3), (300, 288))
EXPANDED = (ModelKind.EXACT, ModelKind.QQC, ModelKind.FQC)


def closed_form_outputs(params, n, m):
    """Every closed-form output at one (n, m), in a fixed order."""
    out = list(dataclasses.astuple(eff.limits(params)))
    for kind in ModelKind:
        c = eff.coefficients(params, kind, n, m)
        out += [c.kappa, c.eta]
    qm, eta_alt = eff.qc_coefficients_qmatrix(params, m, n)
    out += [qm.kappa, qm.eta, eta_alt]
    for kind in EXPANDED:
        out += [r.leading_coefficient
                for r in eff.expansions(params, kind, n, m)]
    return out


def set_outputs(params):
    """`closed_form_outputs` at every (n, m) of INDICES, concatenated."""
    return [x for nm in INDICES for x in closed_form_outputs(params, *nm)]


def draw_sets(rng):
    """Admissible sets over k1 in [0.5, 50], k2/k1 in [-0.2, 5] and
    k3 in [1e-2, 500] (log-uniform where positive), every one of which
    evaluates without error."""
    sets = []
    while len(sets) < N_SETS:
        k1 = math.exp(rng.uniform(math.log(0.5), math.log(50)))
        ratio = (rng.uniform(-0.2, 0) if rng.random() < 0.4
                 else math.exp(rng.uniform(math.log(1e-3), math.log(5))))
        k3 = math.exp(rng.uniform(math.log(1e-2), math.log(500)))
        try:
            params = validate(k1, k1 * ratio, k3, U_CUT)
            set_outputs(params)
        except (ParameterError, ValueError, ArithmeticError):
            continue
        sets.append(params)
    return sets


def main():
    rng = random.Random(SEED)
    entries = [{"params": [x.hex() for x in (p.kappa1, p.kappa2, p.kappa3,
                                               p.u_cut)],
                "outputs": [x.hex() for x in set_outputs(p)]}
               for p in draw_sets(rng)]
    GOLDEN.parent.mkdir(exist_ok=True)
    # One line per set keeps the file diffable.
    GOLDEN.write_text(
        '{"indices": %s,\n"sets": [\n%s\n]}\n'
        % (json.dumps(INDICES), ",\n".join(map(json.dumps, entries))),
        encoding="utf-8")
    print(f"wrote {len(entries)} sets to {GOLDEN}")


if __name__ == "__main__":
    main()
