"""Library survey step: the dense-table calls a Python user makes, in one process.

Usage: python3 survey.py --n N --recip-n M --p P --out RESULT.json

Builds the stability MEF on G(N, 1), takes its mean parameter at p,
surveys the row normalizers of the reciprocity CEF on M vertices, and finds
the stationary law of the stability chain on G(N, 1). The raw results go to
RESULT.json for the benchmark's own checks; nothing here judges them.
"""

from __future__ import annotations

import argparse
import json
import sys

from pumc import expfam, models, simulate


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="survey")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--recip-n", type=int, required=True)
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    mean = expfam.mean_parameter(models.stability_mef(args.n), args.p)
    survey = expfam.validate_cef(models.reciprocity_cef(args.recip_n))
    stationary = simulate.stationary_distribution(
        simulate.stability_transition_matrix(args.n, args.p)
    )
    result = {
        "mean_parameter": mean.value.tolist(),
        "probes": [float(t) for t in survey.probes],
        "empty_row_sums": survey.raw_sums[:, 0].tolist(),
        "shared_normalizer": survey.shared_normalizer.tolist(),
        "stationary": stationary.pi.p.tolist(),
    }
    with open(args.out, "w") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
