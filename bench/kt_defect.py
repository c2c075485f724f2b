#!/usr/bin/env python3
"""Reproduce the known solver defect that keeps B0 > 0 out of ``fuzz_cold``.

Run from the repository root:

    python3 bench/kt_defect.py

On a water-filling catalog with a Kahneman-Tversky money curve and an
external budget B0 > 0, negative taxes are feasible and the tax axis has two
local maxima, one on each side of t = 0.  ``optimize`` can settle on the
lower one, and a misreport that moves the mean type to the other mode then
profits.  The catalog and trial below are one such case, drawn by the
``fuzz_cold`` generator before B0 was set to 0 (seed 848593413, trial 803).
Exits 1 while the single-trial fuzz finds a gain above its tolerance, and 0
once the solver finds the global optimum.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import usvcg  # noqa: E402
from usvcg import experiments  # noqa: E402

INSTANCE = usvcg.BudgetInstance(
    m=3, n=3, external_budget=41.07297040776804,
    gain_curves=(usvcg.GainCurve.log(7.574585875458979),
                 usvcg.GainCurve.power(7.275715754986248, 0.4448090106856578),
                 usvcg.GainCurve.log1p(3.5494111616411894)),
    money_curve=usvcg.MoneyCurve.kahneman_tversky(0.6728789946505016, 0.7113661941218359,
                                                  2.133001340521651))
TRIAL_SEED = 1932293069


def main() -> int:
    report = experiments.sdsic_fuzz(INSTANCE, 1, TRIAL_SEED, misreport_space="allocation")
    print(f"gain {report.max_gain!r} (tolerance {report.tolerance!r}): "
          + ("defect present" if not report.passed else "fixed"))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
