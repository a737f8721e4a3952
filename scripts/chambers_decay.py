#!/usr/bin/env python3
"""Discriminant phase-variation decay along a convergent sequence.

Prints (q, deviation, closed_form, sub_exp_reference) rows as CSV for the
almost Mathieu potential 2 lam cos(2 pi theta) at the convergents q >= 3 of
--alpha.  The third column is the single-harmonic closed form 2 lam^q; the
fourth is exp(-Lambda(q^(3/4))) for the chosen modulus, the sub-exponential
reference scale for smooth potentials.
"""

import argparse
import math
import sys

from qplab import contfrac, spectra
from qplab.udspace import FourierSeries, Modulus, lambda_of


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", default="golden")
    ap.add_argument("--lam", type=float, default=0.5)
    ap.add_argument("--E", type=float, default=0.0)
    ap.add_argument("--levels", type=int, default=6)
    ap.add_argument("--modulus", default="power")
    ap.add_argument("--modulus-param", type=float, default=3.0)
    args = ap.parse_args()

    cf = contfrac.expand(args.alpha, args.levels + 6)
    M = Modulus(args.modulus, args.modulus_param)
    V = FourierSeries.cosine(2 * args.lam)
    conv = []
    for i in range(1, cf.depth() + 1):
        if len(conv) == args.levels:
            break
        p, q = cf.convergent(i)
        if q >= 3:
            conv.append((q, p))
    print("q,deviation,two_lam_pow_q,exp_neg_lambda_q34")
    for q, p in conv:
        dev = spectra.chambers_deviation(V, p, q, args.E)
        lam_val, _ = lambda_of(M, q**0.75)
        print(f"{q},{dev!r},{2 * args.lam ** q!r},{math.exp(-lam_val)!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
