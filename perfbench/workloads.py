"""Seeded workload plans: the CLI commands each benchmark pass runs.

The program only ever sees the generated argv.  The seed picks the phase
theta (seed 0 is the acceptance-survey point 0.2377, other seeds draw from a
band around it in which v0 stays between 0.10 and 0.23 and the phase
Diophantine constant is positive) and the sample points of the quadrature
oracle.
"""

import random

THETA_SURVEY = 0.2377
THETA_BAND = (0.2277, 0.2477)

# scale_survey keeps h = 0 and the deep scale h = -5 (where the exact
# convergent denominators matter) but stops there, so that a run of one pass
# and its set-up probes ends well inside the 180 s limit even when traced;
# criterion 5 surveys down to h = -8.
SCALE_HMIN = -5
ORACLE_SAMPLES = 6

WORKLOADS = ("ed_l12", "scale_survey", "phase_scan")


def theta_for(seed):
    """Phase theta of a seed: the survey point for seed 0, else uniform in the band."""
    if seed == 0:
        return THETA_SURVEY
    return random.Random(seed).uniform(*THETA_BAND)


def oracle_rng(seed):
    """Random stream for the quadrature-oracle samples, separate from theta's."""
    return random.Random(f"oracle-{seed}")


def plan(workload, seed):
    """Ordered CLI operations of one pass.

    An argv token "{key}" is replaced by the value of "key" in the JSON
    results of an earlier operation of the same pass.
    """
    theta = repr(theta_for(seed))
    if workload == "ed_l12":
        model = ["--L", "12", "--beta", "24", "--eps", "0.1", "--U", "0.1",
                 "--theta", theta]
        return [
            {"command": "decay",
             "argv": ["decay", *model, "--fit-counterterm",
                      "--window", "2:8"]},
            {"command": "correlate",
             "argv": ["correlate", *model, "--nu", "{nu}",
                      "--times", "0,1,-23"]},
        ]
    if workload == "scale_survey":
        return [{"command": "scales",
                 "argv": ["scales", "--hmin", str(SCALE_HMIN),
                          "--theta", theta]}]
    if workload == "phase_scan":
        return [{"command": "scan",
                 "argv": ["scan", "--eps-grid", "0:0.6:4", "--U-grid",
                          "0:0.2:3", "--L-list", "100,200,400",
                          "--beta", "8", "--theta", theta]}]
    raise KeyError(f"unknown workload {workload!r}")


def commands():
    """Every CLI subcommand some workload runs."""
    return sorted({op["command"] for w in WORKLOADS for op in plan(w, 0)})
