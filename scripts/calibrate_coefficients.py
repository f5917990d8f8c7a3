#!/usr/bin/env python3
"""Re-derive the closed-form evolution coefficients from first principles.

The derivation is purely symbolic: each two-atom basis ket, tensored with
the photon state |n>, is pushed through the two sequential interaction
passes using the analytic manifold rotations

    |e, m>  ->  c[m+1] |e, m>  -  i s[m+1] |g, m+1>
    |g, m>  ->  c[m]   |g, m>  -  i s[m]   |e, m-1>      (s[0] = 0)

with c[m] = cos(sqrt(m)*gt), s[m] = sin(sqrt(m)*gt) tracked as symbols
indexed by the photon offset from n.  Tracing out the field then yields
every final matrix element as a bilinear form in the initial elements,
whose coefficient table is printed, cross-checked numerically against the
exact oracle in ``cavitycorr.fock`` for both pass orders (the oracle
flies atom A first; B first is the same oracle on the relabelled atoms),
and compared against the table hard-coded in ``cavitycorr.evolution``.

Run:  python scripts/calibrate_coefficients.py
"""
from __future__ import annotations

import numpy as np
import sympy as sp

from cavitycorr.evolution import evolve_batch
from cavitycorr.fock import sequential_pass_batch
from cavitycorr.verify import sample_xstate
from cavitycorr.xstate import XBatch

# trig symbols indexed by photon offset from n (offsets -1 .. +2 occur)
OFFSETS = range(-1, 3)
C = {k: sp.Symbol(f"c[n{k:+d}]" if k else "c[n]", real=True) for k in OFFSETS}
S = {k: sp.Symbol(f"s[n{k:+d}]" if k else "s[n]", real=True) for k in OFFSETS}
I = sp.I

EXCITED, GROUND = 0, 1  # atom level index, matching the package layout


def pass_through(ket_amplitudes, atom):
    """One cavity passage of one atom; kets are {(a, b, offset): amplitude}."""
    out = {}

    def add(key, amp):
        out[key] = sp.expand(out.get(key, 0) + amp)

    for (a, b, k), amp in ket_amplitudes.items():
        level = a if atom == "A" else b

        def ket(new_level, new_k):
            if atom == "A":
                return (new_level, b, new_k)
            return (a, new_level, new_k)

        if level == EXCITED:
            add(ket(EXCITED, k), amp * C[k + 1])
            add(ket(GROUND, k + 1), -I * amp * S[k + 1])
        else:
            add(ket(GROUND, k), amp * C[k])
            # s[n+k] vanishes when the photon number n+k is 0, so the
            # emitted component below is inert exactly when out of range
            add(ket(EXCITED, k - 1), -I * amp * S[k])
    return out


def final_kets():
    basis = [(EXCITED, EXCITED), (EXCITED, GROUND),
             (GROUND, EXCITED), (GROUND, GROUND)]
    kets = []
    for a, b in basis:
        psi = {(a, b, 0): sp.Integer(1)}
        psi = pass_through(psi, "A")
        psi = pass_through(psi, "B")
        kets.append(psi)
    return kets


def element_coefficients():
    """coeff[(i, j)][(k, l)] = coefficient of rho_kl(0) in rho_ij(t)."""
    kets = final_kets()
    labels = ["11", "22", "33", "44"]
    coeff = {}
    for i in range(4):
        for j in range(4):
            table = {}
            for k in range(4):
                for l in range(4):
                    total = sp.Integer(0)
                    for (ai, bi, mi), amp_k in kets[k].items():
                        target_i = (ai, bi)
                        amp_l = kets[l].get((*_pair(j), mi))
                        if amp_l is None or target_i != _pair(i):
                            continue
                        total += amp_k * sp.conjugate(amp_l)
                    total = sp.simplify(sp.expand(total))
                    if total != 0:
                        table[(k, l)] = total
            coeff[(i, j)] = table
    return coeff, labels


def _pair(idx):
    return [(EXCITED, EXCITED), (EXCITED, GROUND),
            (GROUND, EXCITED), (GROUND, GROUND)][idx]


def print_table(coeff, labels):
    names = {0: "rho11(0)", 1: "rho22(0)", 2: "rho33(0)", 3: "rho44(0)"}
    rows = [(0, 0, "rho11(t)"), (1, 1, "rho22(t)"), (2, 2, "rho33(t)"),
            (3, 3, "rho44(t)"), (1, 2, "rho23(t)"), (2, 1, "rho32(t)")]
    for i, j, label in rows:
        parts = []
        for (k, l), expr in sorted(coeff[(i, j)].items()):
            src = names[k] if k == l else f"rho_{k+1}{l+1}(0)"
            parts.append(f"[{sp.sstr(expr)}] * {src}")
        print(f"{label} =")
        for p in parts:
            print(f"    + {p}")
        print()


def numeric_check(coeff, samples=200, seed=7):
    """Worst deviations of the table from the oracle's orders and from the package.

    The seeded samples are evaluated as one batch: each table entry is
    turned into a numpy function of the trig values of every sample.
    """
    rng = np.random.default_rng(seed)
    drawn = [(sample_xstate(rng), int(rng.integers(0, 11)), float(rng.uniform(0.0, 15.0)))
             for _ in range(samples)]
    states = XBatch.stack([state for state, _, _ in drawn])
    n = np.array([d[1] for d in drawn])
    gt = np.array([d[2] for d in drawn])
    trig = {}
    for k in OFFSETS:
        # photon numbers n + k < 0 read as 0: c = 1, s = 0
        angle = np.sqrt(np.maximum(n + k, 0)) * gt
        trig[C[k]], trig[S[k]] = np.cos(angle), np.sin(angle)
    c23 = states.re_c23 + 1j * states.im_c23
    rho0 = {(0, 0): states.p11, (1, 1): states.p22, (2, 2): states.p33,
            (3, 3): states.p44, (1, 2): c23, (2, 1): np.conj(c23)}

    def element(i, j):
        val = np.zeros(samples, dtype=complex)
        for (k, l), expr in coeff[(i, j)].items():
            value = sp.lambdify(list(trig), expr, "numpy")(*trig.values())
            val = val + value * rho0.get((k, l), 0.0)
        return val

    want = [element(i, i).real for i in range(4)] + [element(1, 2)]

    def deviation(got: XBatch) -> float:
        fields = [got.p11, got.p22, got.p33, got.p44, got.re_c23 + 1j * got.im_c23]
        return float(max(np.max(np.abs(w - g)) for w, g in zip(want, fields)))

    def relabel(batch: XBatch) -> XBatch:
        # the atoms' labels swapped: p22 <-> p33, c23 -> conj(c23)
        return XBatch(batch.p11, batch.p33, batch.p22, batch.p44, batch.re_c23, -batch.im_c23)

    worst = {"A-first": deviation(sequential_pass_batch(states, n, gt)),
             "B-first": deviation(relabel(sequential_pass_batch(relabel(states), n, gt)))}
    return worst, deviation(evolve_batch(states, n, gt))


def trace_check(coeff):
    # the symbols satisfy c^2 + s^2 = 1 at every index (including the
    # inert m = -1 convention); apply that before simplifying
    total = {}
    for i in range(4):
        for key, expr in coeff[(i, i)].items():
            total[key] = total.get(key, 0) + expr
    drift = {}
    for key, expr in total.items():
        want = 1 if key[0] == key[1] else 0
        reduced = sp.expand(expr)
        for k in OFFSETS:
            reduced = sp.expand(reduced.subs(S[k] ** 2, 1 - C[k] ** 2))
        if sp.simplify(reduced - want) != 0:
            drift[key] = sp.simplify(expr)
    return drift


def main():
    print("deriving the two-pass coefficient table symbolically ...")
    coeff, labels = element_coefficients()
    print_table(coeff, labels)

    drift = trace_check(coeff)
    print("trace preservation:", "exact" if not drift else f"violated: {drift}")
    herm = all(sp.simplify(coeff[(2, 1)].get((l, k), 0)
                           - sp.conjugate(coeff[(1, 2)].get((k, l), 0))) == 0
               for k in range(4) for l in range(4))
    print("hermiticity (rho32 table = conj rho23 table):",
          "exact" if herm else "violated")

    print("\nnumeric cross-check against the exact sequential oracle ...")
    worst, worst_pkg = numeric_check(coeff)
    for order, dev in worst.items():
        print(f"  max deviation, {order:>7}: {dev:.3e}"
              f"  {'<-- matches' if dev < 1e-12 else ''}")
    print(f"  max deviation vs package corrected mode: {worst_pkg:.3e}")
    print("\nconclusion: the atom in the first tensor slot crosses first;")
    print("see docs/evolution_coefficients.md for the frozen table.")


if __name__ == "__main__":
    main()
