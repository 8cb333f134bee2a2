#!/usr/bin/env python3
"""Compare the two readings of the discount factor in the gamma
factorization gamma(a, lam) =d D * (Exp(lam) + gamma(a, lam)).

Reading "first_jump" takes D = e^{-Exp(a)}, the discount at the first jump
of the driving compound Poisson process (whose rate is the shape a): it is
A * gamma(a, lam) + B for the driver's first-jump pair (A, B) =
(e^{-tau}, e^{-tau} J), drawn by the library's StoppedIntegralAffine.
Reading "gamma_exponent" takes D = e^{-gamma(a, 1)}, drawn here alone. The
two coincide only at a = 1; this script prints the KS distance of each
reading against direct gamma draws over a grid of shapes, so the
discrepancy is visible at a glance.

Usage: python scripts/compare_discount_readings.py [--n 100000] [--seed 7]
"""

import argparse

import numpy as np

from sdlevy.decomposition import KthJump
from sdlevy.levy import ExponentialJumps, LevyModel
from sdlevy.perpetuity import StoppedIntegralAffine
from sdlevy.rng import GammaParams, RngStream, sample_gamma
from sdlevy.stats import ks_two_sample

SHAPES = (0.25, 0.5, 1.0, 2.0, 4.0)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--lam", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"{'shape':>6s} {'D=e^-Exp(a)':>14s} {'D=e^-gamma(a,1)':>16s} "
          f"{'threshold':>10s}")
    root = RngStream(args.seed)
    for a in SHAPES:
        s_ref, s_fj, s_ge = root.split(3)
        gamma = GammaParams(a, args.lam)
        ref = sample_gamma(gamma, s_ref, size=args.n)
        pair = StoppedIntegralAffine(
            LevyModel(jump_rate=a, jump_law=ExponentialJumps(args.lam)), KthJump())
        d_pair, b_pair = pair.sample_pairs(s_fj, size=args.n)
        fj = d_pair * sample_gamma(gamma, s_fj, size=args.n) + b_pair
        d = np.exp(-sample_gamma(GammaParams(a, 1.0), s_ge, size=args.n))
        ge = d * (s_ge.exponential(args.lam, size=args.n)
                  + sample_gamma(gamma, s_ge, size=args.n))
        d_fj, thr, ok_fj = ks_two_sample(fj, ref)
        d_ge, _, ok_ge = ks_two_sample(ge, ref)
        mark = lambda d, ok: f"{d:10.5f} {'ok' if ok else 'XX'}"
        print(f"{a:6.2f} {mark(d_fj, ok_fj):>14s} {mark(d_ge, ok_ge):>16s} "
              f"{thr:10.5f}")


if __name__ == "__main__":
    main()
