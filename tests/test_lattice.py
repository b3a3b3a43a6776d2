import ast
import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crackqc
from crackqc import effective as eff
from crackqc import kernels
from crackqc import lattice as lat
from crackqc.bifurcation import EffectiveEquation, fold_points
from crackqc.checks import gradient_mismatch
from crackqc.effective import ModelKind
from crackqc.lattice import (ConvergenceError, DisplacementField,
                             SingularJacobianError, assemble_residual,
                             chain_config, default_tail, linear_system,
                             newton_solve, oracle_coefficients,
                             reconstruct_solution)
from crackqc.material import MIN_INTERFACE, force_law, validate

from conftest import DEPENDENCIES, random_params


class TestConfig:
    @pytest.mark.parametrize("k2,k3", [(0.4, 20.0), (0.0, 20.0),
                                       (-0.3, 2.0), (2.0, 0.001)])
    def test_default_tail_is_exact(self, k2, k3):
        # The closure rows hold for the semi-infinite solution, so the
        # default five tail rows give the tip of a 200-row tail: for every
        # model, at k2 = 0, k2 < 0 and slowly decaying bonded roots.
        p = validate(4.0, k2, k3, 0.5)
        n = 40
        for kind in ModelKind:
            m = None if kind is ModelKind.EXACT else 36
            short = chain_config(p, kind, n, m)
            long = chain_config(p, kind, n, m, n + 200)
            assert short.j_max == n + default_tail(p) == n + 5
            got, ref = oracle_coefficients(short), oracle_coefficients(long)
            assert got.kappa == pytest.approx(ref.kappa, rel=1e-12), kind
            assert got.eta == pytest.approx(ref.eta, rel=1e-12), kind
            P = 0.05 * p.kappa3 * p.u_cut / ref.eta
            tip = newton_solve(short, P).u[n]
            assert tip == pytest.approx(newton_solve(long, P).u[n],
                                        rel=1e-12), kind

    @pytest.mark.parametrize("model,m,n", [
        (ModelKind.EXACT, None, 0),
        (ModelKind.QC, 2, 10),
        (ModelKind.QC, 6, 6),
        (ModelKind.QQC, 1, 10),
        (ModelKind.QQC, 10, 10),
        (ModelKind.FQC, 0, 10),
        (ModelKind.FQC, 10, 5),
    ])
    def test_index_validation(self, params, model, m, n):
        with pytest.raises(ValueError):
            chain_config(params, model, n, m)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_one_index_rule(self, params, model, n):
        # The closed forms, the chain and (for the exact model) the
        # reconstruction accept the same (n, m), and refuse the rest with
        # one message: n >= 1 for the exact model, MIN_INTERFACE <= m < n
        # for an approximation.
        def outcome(call, *args):
            try:
                call(*args)
            except ValueError as exc:
                return str(exc)
            return "accepted"

        for m in (None, *range(n + 1)):
            got = {outcome(eff.coefficients, params, model, n, m),
                   outcome(chain_config, params, model, n, m)}
            if model is ModelKind.EXACT:
                got.add(outcome(reconstruct_solution, params, n, 0.1, 0.2))
                accepted = n >= 1
            else:
                accepted = m is not None and MIN_INTERFACE[model] <= m < n
            assert len(got) == 1, (m, got)
            assert (got == {"accepted"}) == accepted, (m, got)

    def test_jmax_needs_tail(self, params):
        # Fewer than five rows past the tip cannot hold the closure rows
        # and the bonded stencil; five are enough for every model.
        n = 20
        for kind in ModelKind:
            m = None if kind is ModelKind.EXACT else 16
            with pytest.raises(ValueError):
                chain_config(params, kind, n, m, n + 4)
            assert chain_config(params, kind, n, m, n + 5).j_max == n + 5


class TestLinearSystem:
    def test_uniform_strain_interior_rows(self, params):
        # Away from the crack tip and closure rows, a linear field is
        # annihilated for the exact, QQC, and FQC stencils.  (QC keeps a
        # ghost dipole at the interface; covered in the effective tests.)
        for kind in (ModelKind.EXACT, ModelKind.QQC, ModelKind.FQC):
            cfg = chain_config(params, kind, 16,
                               None if kind is ModelKind.EXACT else 10, 60)
            a_mat, _ = linear_system(cfg)
            resid = lat.band_matvec(a_mat,
                                    np.arange(cfg.j_max + 1, dtype=float))
            for j in range(2, cfg.n):
                assert abs(resid[j]) < 1e-12, (kind, j)

    @pytest.mark.parametrize("k2,n,m", [(0.4, 104, 100), (0.4, 400, 396),
                                        (0.0, 104, 100)])
    def test_bulk_rows_match_per_entry_assembly(self, k2, n, m):
        # The slice-written continuum, atomistic and bonded rows equal an
        # entry-by-entry build of the same stencils, bit for bit.
        p = validate(4.0, k2, 20.0, 0.5)
        k1, kbar, k3 = p.kappa1, p.kappa_bar, p.kappa3
        cont_stop = {ModelKind.EXACT: 1, ModelKind.QC: m - 1,
                     ModelKind.QQC: m - 1, ModelKind.FQC: m + 1}
        atom_start = {ModelKind.EXACT: 2, ModelKind.QC: m + 2,
                      ModelKind.QQC: m + 1, ModelKind.FQC: m + 1}
        for kind in ModelKind:
            cfg = chain_config(p, kind, n, m)
            ab, _ = linear_system(cfg)
            jm = cfg.j_max
            bonded_stop = jm - 2
            ref = {}

            def put(j, entries):
                for col, val in entries:
                    ref[j, col] = ref.get((j, col), 0.0) + val

            for j in range(1, cont_stop[kind]):
                put(j, [(j + 1, kbar), (j, -2 * kbar), (j - 1, kbar)])
            for j in range(atom_start[kind], bonded_stop + 1):
                put(j, [(j + 1, k1), (j, -2 * k1), (j - 1, k1)])
                if k2 != 0:
                    put(j, [(j + 2, k2), (j, -2 * k2), (j - 2, k2)])
                if j > n:
                    put(j, [(j, -2 * k3)])
            rows = {j for j, _ in ref}
            for j in rows:
                for col in range(max(j - 2, 0), min(j + 3, jm + 1)):
                    got = ab[lat.DIAG + j - col, col]
                    assert got == ref.get((j, col), 0.0), (kind, j, col)

    def test_load_vector_support(self, params):
        cfg = chain_config(params, ModelKind.EXACT, 16, None, 60)
        _, p_vec = linear_system(cfg)
        assert np.count_nonzero(p_vec) > 0
        assert np.all(p_vec[cfg.n + 1:] == 0)


def test_chain_imports_no_closed_form():
    # The chain, the oracle and Newton take everything from `material`, so
    # the oracle stays independent of `effective` by construction; only
    # `reconstruct_solution` evaluates the crack-region kernel.
    tree = ast.parse(Path(lat.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert {name for name in imported
            if "effective" in name or "kernels" in name} == {
                "kernels.HyperbolicKernel"}
    users = [getattr(stmt, "name", None) for stmt in tree.body
             if not isinstance(stmt, ast.ImportFrom)
             and any(isinstance(node, ast.Name)
                     and node.id == "HyperbolicKernel"
                     for node in ast.walk(stmt))]
    assert users == ["reconstruct_solution"]


def _fresh_interpreter(code, cwd):
    """Run `code` in a new interpreter with this checkout's src/ first."""
    src = str(Path(crackqc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


# The commands of perfbench's cli-cold workload, with shorter curves.
CLI_COLD = {
    "validate": [],
    "limits": [],
    "folds": ["--model", "all"],
    "coefficients": ["--oracle", "--json"],
    "trace": ["--model", "exact", "--smax", "0.5", "--out", "curve.csv"],
    "compare": ["--model", "qqc", "--smax", "0.5"],
    "check": ["--seed", "0"],
}
# Each case's command line, by test id.
CLI_RUNS = {name: [name, *flags] for name, flags in CLI_COLD.items()}
CLI_RUNS["trace-all"] = ["trace", "--model", "all", "--smax", "0.5",
                         "--out", "curve.csv"]
# Importing the CLI, and these cases, need no numpy.  `compare` keeps it:
# its sup over a 33,519-row pair takes 1.1 ms in numpy, 17 ms in Python.
NUMPY_FREE = {None, "validate", "limits", "folds", "trace", "trace-all"}


@pytest.mark.parametrize("command",
                         [pytest.param(None, id="import")] + list(CLI_RUNS))
def test_import_loads_no_sparse_or_optimize(command, tmp_path):
    # A fresh interpreter, so modules imported by other tests do not count.
    # Importing the CLI loads no scipy.  A command loads numpy only when it
    # solves a chain or compares curves, and LAPACK comes from scipy's
    # compiled wrapper alone, never through `scipy.linalg`.
    if command is None:
        run = "import crackqc.cli"
    else:
        run = (f"sys.argv = {['crackqc', *CLI_RUNS[command]]!r}; "
               "runpy.run_module('crackqc.cli', run_name='__main__')")
    _fresh_interpreter("import sys\n"
                       "before = sorted(sys.modules)\n"
                       "import runpy\n"
                       "try:\n"
                       f"    {run}\n"
                       "finally:\n"
                       "    with open('modules.txt', 'w') as out:\n"
                       "        out.write(repr((before, sorted(sys.modules))))\n",
                       tmp_path)
    before, loaded = map(set, ast.literal_eval(
        (tmp_path / "modules.txt").read_text()))
    # Of the installed distributions, only the declared dependencies load:
    # the CLI's parser is the standard library's.
    installed = importlib.metadata.packages_distributions()
    assert {m.split(".")[0] for m in loaded - before} & set(installed) \
        <= DEPENDENCIES
    if command is None:
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert not {m for m in loaded if m.startswith(
        ("scipy.linalg", "scipy.sparse", "scipy.optimize", "numpy.f2py"))}
    assert ("numpy" in loaded) == (command not in NUMPY_FREE)
    if command in NUMPY_FREE:
        assert "mpmath" not in loaded
    if command == "trace-all":
        assert len(list(tmp_path.glob("curve_*.csv"))) == 4


def _lapack_bits():
    """Oracle (kappa, eta) and a warm-started Newton field, as float.hex
    strings, for all four models at the reference point and 24 box cases,
    factored with whichever LAPACK routines `lattice` has loaded."""
    rng = np.random.default_rng(18)
    cases = [(validate(4.0, 0.4, 20.0, 0.5), 104, 100)]
    for _ in range(24):
        n = int(rng.integers(20, 120))
        cases.append((random_params(rng), n, n - int(rng.integers(3, 12))))
    bits = []
    for params, n, m in cases:
        for kind in ModelKind:
            cfg = chain_config(params, kind, n, m)
            orc = oracle_coefficients(cfg)
            field = newton_solve(cfg, 0.1, newton_solve(cfg, 0.05))
            bits.append([orc.kappa.hex(), orc.eta.hex()]
                        + [float(x).hex() for x in field.u])
    return bits


class TestBandLapack:
    """`lattice` loads scipy's `_flapack` extension by file path and falls
    back to `scipy.linalg.lapack`; both must give the same bits.  Each path
    is taken in a fresh interpreter, where no other test has loaded
    `scipy.linalg` first."""

    @staticmethod
    def _run(body, tmp_path_factory):
        tests = str(Path(__file__).resolve().parent)
        code = (f"import json, sys\nsys.path.insert(0, {tests!r})\n"
                "from crackqc import lattice as lat\n"
                "from test_lattice import _lapack_bits\n"
                "report = {}\n" + body + "print(json.dumps(report))\n")
        return json.loads(_fresh_interpreter(
            code, tmp_path_factory.mktemp("lapack")))

    @pytest.fixture(scope="class")
    def private(self, tmp_path_factory):
        """Bits from the private load, again after `import scipy.linalg`,
        and from the public module once that is loaded."""
        return self._run("""
report["private"] = _lapack_bits()
report["scipy_linalg_loaded"] = "scipy.linalg" in sys.modules
import numpy as np
import scipy.linalg
a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
x = scipy.linalg.solve(a, np.ones(3))
report["scipy_solve_residual"] = float(np.max(np.abs(a @ x - 1)))
report["after_import"] = _lapack_bits()
report["private_is_public"] = (
    lat._band_lapack()[0] is scipy.linalg.lapack.dgbtrf)
lat._band_lapack.cache_clear()
report["public"] = _lapack_bits()
report["public_is_public"] = (
    lat._band_lapack()[0] is scipy.linalg.lapack.dgbtrf)
""", tmp_path_factory)

    def test_private_load_skips_scipy_linalg(self, private):
        assert not private["scipy_linalg_loaded"]
        assert not private["private_is_public"]
        assert private["public_is_public"]

    def test_both_paths_bit_identical(self, private):
        assert len(private["private"]) == 4 * 25
        assert private["public"] == private["private"]

    def test_later_scipy_linalg_import_still_solves(self, private):
        assert private["after_import"] == private["private"]
        assert private["scipy_solve_residual"] < 1e-12

    def test_fallback_without_private_file(self, private, tmp_path_factory):
        report = self._run("""
lat._flapack_path = lambda: None
report["bits"] = _lapack_bits()
import scipy.linalg.lapack
report["is_public"] = lat._band_lapack()[0] is scipy.linalg.lapack.dgbtrf
""", tmp_path_factory)
        assert report["is_public"]
        assert report["bits"] == private["private"]


class TestEnergyForce:
    def test_gradient_matches_residual(self, params, rng):
        # d E / d u_j = -residual_j at 20 random fields per energy model.
        for kind in (ModelKind.EXACT, ModelKind.QC, ModelKind.QQC):
            cfg = chain_config(params, kind, 25,
                               None if kind is ModelKind.EXACT else 15, 70)
            for _ in range(20):
                u = 0.02 * rng.standard_normal(cfg.j_max + 1)
                P = float(rng.uniform(-0.5, 0.5))
                assert gradient_mismatch(
                    cfg, DisplacementField(u, P), 5) <= 1e-6, kind


class TestOracle:
    REFERENCE = {
        (ModelKind.EXACT, None): (-4.363407363347422, 0.929611137865919),
        (ModelKind.QC, 100): (-4.363407362981586, 0.929614596388491),
        (ModelKind.QQC, 100): (-4.363407363353104, 0.929611137867217),
        (ModelKind.FQC, 100): (-4.363622416215735, 0.929653755904774),
        (ModelKind.QC, 96): (-4.363407363347415, 0.929611138037630),
        (ModelKind.QQC, 96): (-4.363407363347418, 0.929611137866086),
        (ModelKind.FQC, 96): (-4.363407374013131, 0.929611139979767),
    }

    @pytest.mark.parametrize("key", sorted(REFERENCE, key=str))
    def test_reference_values(self, params, key):
        kind, m = key
        cfg = chain_config(params, kind, 104, m)
        orc = oracle_coefficients(cfg)
        ref_kappa, ref_eta = self.REFERENCE[key]
        assert orc.kappa == pytest.approx(ref_kappa, abs=1e-10)
        assert orc.eta == pytest.approx(ref_eta, abs=1e-11)

    def test_independent_of_closed_forms(self, params, monkeypatch):
        # The oracle must keep working with every closed form and kernel
        # unavailable, and still agree with the unpatched closed forms.
        cases = [(ModelKind.EXACT, None), (ModelKind.QC, 100),
                 (ModelKind.QQC, 100), (ModelKind.FQC, 96)]
        expected = [eff.coefficients(params, kind, 104, m)
                    for kind, m in cases]

        def unavailable(*args, **kwargs):
            raise AssertionError("oracle called a closed form")

        for name in ("coefficients", "exact_coefficients", "qc_coefficients",
                     "qqc_coefficients", "fqc_coefficients"):
            monkeypatch.setattr(eff, name, unavailable)
        monkeypatch.setattr(kernels, "HyperbolicKernel", unavailable)
        monkeypatch.setattr(lat, "HyperbolicKernel", unavailable)
        for (kind, m), form in zip(cases, expected):
            orc = oracle_coefficients(chain_config(params, kind, 104, m))
            assert orc.kappa == pytest.approx(form.kappa, rel=1e-12), kind
            assert orc.eta == pytest.approx(form.eta, rel=1e-12), kind

    def test_kappa2_zero_supported(self, rng):
        # The closed forms need kappa2 != 0, but the assembled chain does
        # not; continuity in kappa2 pins the kappa2 = 0 oracle.
        p0 = validate(4.0, 0.0, 20.0, 0.5)
        p1 = validate(4.0, 1e-7, 20.0, 0.5)
        o0 = oracle_coefficients(chain_config(p0, ModelKind.EXACT, 20))
        o1 = oracle_coefficients(chain_config(p1, ModelKind.EXACT, 20))
        assert o0.kappa < 0 and o0.eta > 0
        assert o0.kappa == pytest.approx(o1.kappa, rel=1e-5)
        assert o0.eta == pytest.approx(o1.eta, rel=1e-5)


def _reference_newton(config, P, u_init=None):
    """The full-vector iteration `newton_solve` replaced, step for step.

    Every trial is formed as a whole field and its residual assembled by a
    band matvec, on a factorization made for this call.  Returns
    (field, history, trials), where trials counts the trial fields formed:
    more trials than steps means some step was halved.
    """
    u = (np.zeros(config.j_max + 1) if u_init is None
         else np.array(u_init.u, dtype=float))
    law = force_law(config.params)
    a_mat, p_vec = linear_system(config)
    rhs = np.zeros((config.j_max + 1, 2))
    rhs[config.n, 0] = 1.0
    rhs[:, 1] = p_vec
    cols = lat._factorize(a_mat)(rhs)
    n = config.n
    (w_e, w_p), (g, h) = cols.T, cols[n]

    def residual(u):
        r = lat.band_matvec(a_mat, u) + p_vec * P
        r[n] += law.force(u[n])
        return r

    tol = lat.RESIDUAL_TOL * (1 + abs(P))
    norm = float(np.max(np.abs(residual(u))))
    history, trials = [norm], 0
    while not norm <= tol:
        if len(history) > lat.MAX_ITERATIONS:
            raise ConvergenceError(f"residual norm {norm:.3e}")
        t = u[n]
        slope = law.force_derivative(t)
        pivot = 1 + g * slope
        if abs(pivot) <= 1e-13 * (1 + abs(g * slope)):
            raise SingularJacobianError(n, float(pivot))
        f = (law.force(t) - slope * (t + P * h)) / pivot
        step = -(P * w_p + f * w_e) - u
        scale = 1.0
        for _ in range(lat.MAX_HALVINGS + 1):
            trial = u + scale * step
            trials += 1
            trial_norm = float(np.max(np.abs(residual(trial))))
            if trial_norm < norm:
                break
            scale /= 2
        u, norm = trial, trial_norm
        history.append(norm)
    return DisplacementField(u=u, P=P), history, trials


def _box_cases(rng, count):
    """`count` (params, n, m) over the benchmark's sampling box: k1 in
    [1, 8], k2/k1 in [0.01, 0.3], k3 in [0.5, 50], n in [20, 400] and
    n - m in [2, 12]."""
    for _ in range(count):
        k1 = rng.uniform(1.0, 8.0)
        params = validate(k1, k1 * rng.uniform(0.01, 0.3),
                          rng.uniform(0.5, 50.0), 0.5)
        n = int(rng.integers(20, 401))
        yield params, n, n - int(rng.integers(2, 13))


def _critical_load(config):
    """Load at which the chain's physical branch ends: its first fold, or
    where the tip bond reaches u_cut when there is none."""
    orc = oracle_coefficients(config)
    eq = EffectiveEquation(force_law(config.params), orc.kappa, orc.eta)
    folds = fold_points(eq)
    if folds:
        return folds[0].P_star
    return -orc.kappa * config.params.u_cut / orc.eta


class TestNewton:
    def test_matches_full_vector_reference(self):
        # From a zero start at each load of a 0.2 .. 0.8 ramp up to the
        # critical load, and warm-started along it, the scalar iteration
        # returns the reference's fields bit for bit, in as many steps.
        rng = np.random.default_rng(26)
        for params, n, m in _box_cases(rng, 200):
            for kind in ModelKind:
                cfg = chain_config(params, kind, n, m)
                load = _critical_load(cfg)
                warm = ref_warm = None
                for fraction in (0.2, 0.4, 0.6, 0.8):
                    P = fraction * load
                    for start, ref_start in ((None, None), (warm, ref_warm)):
                        got, history = newton_solve(cfg, P, start, True)
                        want, ref_history, _ = _reference_newton(
                            cfg, P, ref_start)
                        assert got.u.tobytes() == want.u.tobytes(), \
                            (kind, n, m, fraction)
                        assert len(history) == len(ref_history)
                    warm, ref_warm = got, want

    def test_returned_fields_are_honest(self):
        # Random starts off the affine graph force halved steps.  Every
        # returned field meets the tolerance by its assembled residual, whose
        # norm is history[-1].  Where the reference converges within 20
        # steps, so does the scalar iteration, through the same residual
        # norms to within the tolerance, and to the same field up to the
        # reference's roundoff: a full step from a start u0 lands on
        # u0 + (target - u0) there, on target here.
        rng = np.random.default_rng(5)
        compared = halved = 0
        for params, n, m in _box_cases(rng, 75):
            for kind in ModelKind:
                cfg = chain_config(params, kind, n, m)
                P = float(rng.uniform(0.0, 0.9)) * _critical_load(cfg)
                start = DisplacementField(
                    rng.uniform(-0.5, 1.0, cfg.j_max + 1), P)
                try:
                    want, ref_history, trials = _reference_newton(
                        cfg, P, start)
                    steps = len(ref_history) - 1
                except (ConvergenceError, SingularJacobianError):
                    steps = None
                try:
                    got, history = newton_solve(cfg, P, start, True)
                except (ConvergenceError, SingularJacobianError):
                    assert steps is None or steps > 20, (kind, n, m)
                    continue
                norm = float(np.max(np.abs(assemble_residual(cfg, got))))
                tol = lat.RESIDUAL_TOL * (1 + abs(P))
                assert norm <= tol
                assert history[-1] == norm
                if steps is not None and steps <= 20:
                    compared += 1
                    halved += trials > steps
                    assert (history[0], len(history)) == (
                        ref_history[0], len(ref_history))
                    assert np.max(np.abs(np.subtract(
                        history, ref_history))) <= tol
                    scale = 1 + float(np.max(np.abs(want.u)))
                    assert np.max(np.abs(got.u - want.u)) <= 1e-13 * scale
        assert compared >= 280 and halved >= 50

    def test_no_field_returned_unchecked(self, params, monkeypatch):
        # With every column of A^-1 off by a relative 1e-9, the scalar
        # iteration converges on its own terms, but each field it forms
        # misses row 0 by 1e-9 P.  The assembled check refuses every one,
        # so the call ends in ConvergenceError instead of returning a field.
        factorize = lat._factorize
        monkeypatch.setattr(lat, "_factorize", lambda ab: (
            lambda rhs: factorize(ab)(rhs) * (1 + 1e-9)))
        cfg = chain_config(params, ModelKind.EXACT, 30)
        with pytest.raises(ConvergenceError):
            newton_solve(cfg, 1.5)

    def test_solution_satisfies_effective_equation(self, params):
        cfg = chain_config(params, ModelKind.EXACT, 30)
        coefs = eff.exact_coefficients(params, 30)
        law = force_law(params)
        for P in (0.5, 1.5, -0.8):
            field = newton_solve(cfg, P)
            g = law.force(field.u[30]) + coefs.kappa * field.u[30] \
                + coefs.eta * P
            assert abs(g) < 1e-9 * (1 + abs(P))

    def test_quadratic_convergence(self, params):
        cfg = chain_config(params, ModelKind.EXACT, 30)
        field, history = newton_solve(cfg, 1.5, return_history=True)
        assert history[-1] <= lat.RESIDUAL_TOL * (1 + 1.5)
        assert len(history) <= 8
        # Once inside the basin each step at least squares the residual
        # (up to a bounded constant), the Newton signature.
        tail = [h for h in history if h < 1e-1]
        for a, b in zip(tail, tail[1:]):
            assert b < max(10 * a * a, 1e-13)

    def test_matches_all_models_in_linear_regime(self, params):
        # Small loads keep every model in the near-linear regime, where the
        # QQC solve agrees with exact far more closely than QC.
        P = 0.2
        u_exact = newton_solve(chain_config(params, ModelKind.EXACT, 104),
                               P).u[104]
        u_qqc = newton_solve(chain_config(params, ModelKind.QQC, 104, 100),
                             P).u[104]
        u_qc = newton_solve(chain_config(params, ModelKind.QC, 104, 100),
                            P).u[104]
        assert abs(u_qqc - u_exact) < 1e-10
        assert abs(u_qqc - u_exact) < abs(u_qc - u_exact)

    def test_failure_past_the_fold(self, params):
        # Beyond the maximum sustainable load on the rising branch there is
        # no nearby solution; starting at the fold state the iteration hits
        # a singular Jacobian or runs out of iterations.
        coefs = eff.exact_coefficients(params, 30)
        law = force_law(params)
        eq = EffectiveEquation(law, coefs.kappa, coefs.eta)
        folds = fold_points(eq)
        p_max = max(f.P_star for f in folds)
        u_star = [f.u_star for f in folds if f.P_star == p_max][0]
        _, field = reconstruct_solution(params, 30, u_star, p_max)
        cfg = chain_config(params, ModelKind.EXACT, 30,
                           j_max=len(field.u) - 1)
        with pytest.raises((SingularJacobianError, ConvergenceError)):
            newton_solve(cfg, p_max * 1.05, u_init=field)

    def test_one_factorization_per_call(self, params, monkeypatch):
        # The oracle, a warm-started load ramp and the residual all read the
        # config's one chain: one assembly and one factorization in all.  An
        # equal config built on its own assembles and factors its own chain.
        calls = {"linear_system": 0, "_factorize": 0}
        for name in calls:
            def counted(*args, _name=name, _call=getattr(lat, name)):
                calls[_name] += 1
                return _call(*args)

            monkeypatch.setattr(lat, name, counted)
        cfg = chain_config(params, ModelKind.EXACT, 30)
        oracle_coefficients(cfg)
        field, steps = None, 0
        for P in (0.375, 0.75, 1.125, 1.5):
            field, history = newton_solve(cfg, P, field, return_history=True)
            steps += len(history) - 1
        assemble_residual(cfg, field)
        assert steps > 4
        assert calls == {"linear_system": 1, "_factorize": 1}
        twin = chain_config(params, ModelKind.EXACT, 30)
        assert twin == cfg and twin is not cfg
        oracle_coefficients(twin)
        newton_solve(cfg, 1.5, field)
        assert calls == {"linear_system": 2, "_factorize": 2}

    def test_cached_chain_is_read_only(self, params):
        # Every later solve on the config shares these arrays, so no caller
        # may write into them; `linear_system` still builds fresh, writable
        # ones.
        cfg = chain_config(params, ModelKind.QQC, 30, 25)
        ab, p_vec, w_e, w_p, _, _ = cfg.chain
        for array in (ab, p_vec, w_e, w_p):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        fresh_ab, fresh_p = linear_system(cfg)
        assert np.array_equal(fresh_ab, ab) and np.array_equal(fresh_p, p_vec)
        fresh_ab[0] = fresh_p[0] = 1.0

    def test_bad_init_length(self, params):
        cfg = chain_config(params, ModelKind.EXACT, 30)
        with pytest.raises(ValueError):
            newton_solve(cfg, 0.1, u_init=DisplacementField(np.zeros(3), 0.1))


class TestReconstruction:
    def test_matches_newton_solution(self, params):
        n = 30
        cfg = chain_config(params, ModelKind.EXACT, n)
        P = 1.2
        field = newton_solve(cfg, P)
        _, rec = reconstruct_solution(params, n, field.u[n], P,
                                      j_max=cfg.j_max)
        assert np.max(np.abs(rec.u - field.u)) < 1e-10

    def test_rows_satisfied(self, params):
        n = 30
        cfg = chain_config(params, ModelKind.EXACT, n)
        _, rec = reconstruct_solution(params, n, 0.1, 0.7, j_max=cfg.j_max)
        resid = assemble_residual(cfg, rec)
        # All rows except the tip force balance are linear and must vanish.
        interior = np.delete(resid[:-2], n)
        assert np.max(np.abs(interior)) < 1e-11

    def test_truncation_robustness(self, params):
        # The tip displacement from the solve is insensitive to the tail
        # length once past the default.
        n = 30
        short = newton_solve(chain_config(params, ModelKind.EXACT, n,
                                          j_max=n + 40), 1.0)
        long = newton_solve(chain_config(params, ModelKind.EXACT, n,
                                         j_max=n + 80), 1.0)
        assert short.u[n] == pytest.approx(long.u[n], abs=1e-12)

    def test_short_tail_raises_like_chain_config(self, params):
        # Fewer than five rows past the tip, or j_max < n, is refused with
        # the chain's own message: no chain of that length can be checked
        # against the field.
        n = 20
        for j_max in (n + 4, n - 3):
            with pytest.raises(ValueError) as chain:
                chain_config(params, ModelKind.EXACT, n, None, j_max)
            with pytest.raises(ValueError) as rebuilt:
                reconstruct_solution(params, n, 0.1, 0.7, j_max=j_max)
            assert str(rebuilt.value) == str(chain.value)

    def test_random_params_roundtrip(self, rng):
        for _ in range(10):
            p = random_params(rng)
            n = int(rng.integers(8, 25))
            cfg = chain_config(p, ModelKind.EXACT, n)
            P = float(rng.uniform(-0.5, 0.5))
            field = newton_solve(cfg, P)
            _, rec = reconstruct_solution(p, n, field.u[n], P,
                                          j_max=cfg.j_max)
            assert np.max(np.abs(rec.u - field.u)) < 1e-8
