"""Geometry of interpolant schedules.

Walks through the closed-form schedules (linear, trigonometric,
polynomial), showing their coefficient curves, curvature profiles, and
determinant integrals, and writes an SVG comparing them.

Run from the repository root:

    python3 demos/schedule_geometry.py
"""

import os

import numpy as np

from curveflow import (curvature, determinant_integral, make_schedule,
                       pointwise_derivatives, svgplot)

OUT = os.path.join(os.path.dirname(__file__), "out")


def main():
    os.makedirs(OUT, exist_ok=True)
    x0 = np.array([1.0, 0.0])
    eps = np.array([0.0, 1.0])

    print("curvature along the trajectory from x0=(1,0) to eps=(0,1):")
    for kind in ("linear", "trigonometric", "polynomial"):
        schedule = make_schedule(kind)
        dg = pointwise_derivatives(schedule, np.array([0.25, 0.5, 0.75]))
        kappas = curvature(dg, x0, eps)
        print("  %-14s kappa(0.25, 0.5, 0.75) = %s   det integral = %.4f"
              % (kind, np.round(kappas, 4), determinant_integral(schedule)))

    # the linear schedule is a straight line (zero curvature); the
    # trigonometric one traces a quarter circle (constant curvature 1)
    t = np.linspace(0.0, 1.0, 201)
    curves = []
    for kind in ("linear", "trigonometric", "polynomial"):
        schedule = make_schedule(kind)
        curves.append(("%s a(t)" % kind, schedule.a(t)))
        curves.append(("%s b(t)" % kind, schedule.b(t)))
    svgplot.lines(os.path.join(OUT, "schedule_coefficients.svg"), t, curves,
                  title="interpolant coefficients a(t), b(t)")
    print("wrote %s" % os.path.join(OUT, "schedule_coefficients.svg"))


if __name__ == "__main__":
    main()
