import ast
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
from crackqc.effective import ModelKind
from crackqc.lattice import (ConvergenceError, DisplacementField,
                             SingularJacobianError, assemble_energy,
                             assemble_residual, chain_config, default_tail,
                             linear_system, newton_solve, oracle_coefficients,
                             reconstruct_solution)
from crackqc.material import force_law, validate

from conftest import random_params


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
        (ModelKind.EXACT, None, 1),
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


def test_import_loads_no_sparse_or_optimize():
    # A fresh interpreter, so modules imported by other tests do not count.
    # scipy is loaded only when a chain is factored, so a CLI command that
    # never solves one does not pay for it.
    code = ("import sys, crackqc.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = str(Path(crackqc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestEnergyForce:
    def test_gradient_matches_residual(self, params, rng):
        # d E / d u_j = -residual_j at 20 random fields per energy model.
        for kind in (ModelKind.EXACT, ModelKind.QC, ModelKind.QQC):
            cfg = chain_config(params, kind, 25,
                               None if kind is ModelKind.EXACT else 15, 70)
            for _ in range(20):
                u = 0.02 * rng.standard_normal(cfg.j_max + 1)
                P = float(rng.uniform(-0.5, 0.5))
                resid = assemble_residual(cfg, DisplacementField(u, P))
                h = 1e-6
                for j in range(0, cfg.j_max - 1, 5):
                    up, um = u.copy(), u.copy()
                    up[j] += h
                    um[j] -= h
                    grad = (assemble_energy(cfg, DisplacementField(up, P))
                            - assemble_energy(cfg, DisplacementField(um, P))
                            ) / (2 * h)
                    assert grad == pytest.approx(
                        -resid[j], rel=1e-6, abs=1e-6), (kind, j)

    def test_fqc_reports_no_energy(self, params):
        assert not ModelKind.FQC.has_energy
        cfg = chain_config(params, ModelKind.FQC, 25, 15, 70)
        field = DisplacementField(np.zeros(cfg.j_max + 1), 0.0)
        with pytest.raises(ValueError):
            assemble_energy(cfg, field)


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


class TestNewton:
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
        # Every Newton step reuses the oracle's two columns of A^-1.
        calls = []
        factorize = lat._factorize

        def counted(ab):
            calls.append(ab.shape)
            return factorize(ab)

        monkeypatch.setattr(lat, "_factorize", counted)
        cfg = chain_config(params, ModelKind.EXACT, 30)
        _, history = newton_solve(cfg, 1.5, return_history=True)
        assert len(history) > 3
        assert len(calls) == 1

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
