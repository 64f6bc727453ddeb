"""The same pipeline driven through the command-line interface.

Writes the two sample files an analyst would bring into a temporary
directory, runs `dsm impute` and `dsm estimate` on them and prints the
outputs; the directory is removed at the end.  The CLI is a thin
wrapper over the library, so results match the in-process calls
exactly; identical invocations are byte-identical.
"""

import tempfile
from pathlib import Path

import numpy as np

from dsm import ScenarioSpec, gen_population, poisson_sample, pps_sample
from dsm.cli import main
from dsm.io import write_csv

spec = ScenarioSpec(n_pop=20000, n_a=500, n_b=1000, seed=13)
rng = np.random.default_rng(spec.seed)
pop = gen_population(spec, rng)
idx_a = poisson_sample(pop.pi_a, rng)
idx_b = pps_sample(pop.pi_b, spec.n_b, rng)

cols = ("x1", "x2", "x3", "x4")
with tempfile.TemporaryDirectory(prefix="dsm_demo_") as tmp:
    workdir = Path(tmp)
    write_csv(workdir / "volunteer.csv", cols + ("y",),
              np.column_stack([pop.x[idx_a], pop.y[idx_a]]))
    write_csv(workdir / "reference.csv", cols + ("d",),
              np.column_stack([pop.x[idx_b], 1.0 / pop.pi_b[idx_b]]))
    print("wrote the two sample files")

    common = [
        "--sample-a", str(workdir / "volunteer.csv"),
        "--sample-b", str(workdir / "reference.csv"),
        "--covariates", ",".join(cols),
        "--m", "3",
    ]

    code = main(["impute", *common, "--out", str(workdir / "imputed.csv")])
    print(f"\n$ dsm impute ...  (exit {code})")
    lines = (workdir / "imputed.csv").read_text().splitlines()
    print("\n".join(lines[:4]))
    print(f"... {len(lines) - 1} imputed rows in all")

    code = main(["estimate", *common, "--bootstrap", "2000", "--seed", "13",
                 "--out", str(workdir / "report.csv")])
    print(f"\n$ dsm estimate ...  (exit {code})")
    print((workdir / "report.csv").read_text().rstrip())

    print("\nrun metadata sidecar:")
    print((workdir / "report.csv.meta").read_text().rstrip())
