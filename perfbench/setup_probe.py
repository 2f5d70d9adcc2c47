"""One set-up probe: interpreter start to the first step of a workload's pipeline.

Usage: ``python3 perfbench/setup_probe.py <profile> <workload>``

The probe runs the workload's first scenario through ``run_pipeline`` with
``StaggeredStepper.step`` replaced by a stop, prints ``ready`` when the
first step is reached and exits. The parent times process start to that
line, so imports, config parsing and validation, mesh build, curve loading,
stepper construction and the pressure factorisation are all inside it.
"""

from __future__ import annotations

import signal
import sys

import _env

#: a probe that never reaches a step must not outlive its parent's patience
PROBE_TIMEOUT_S = 120


class _FirstStep(Exception):
    pass


def _stop(*args, **kwargs):
    raise _FirstStep


def main(argv: list[str]) -> int:
    signal.alarm(PROBE_TIMEOUT_S)
    _env.bootstrap()
    from workloads import PROFILES
    from depotsim import config as dconfig
    from depotsim.orchestrator import Simulation, StaggeredStepper

    workload = PROFILES[argv[0]][argv[1]]
    _, overrides = workload.cases()[0]
    StaggeredStepper.step = _stop
    try:
        Simulation(dconfig.load_config_text(workload.config_text(overrides))).run_pipeline()
    except _FirstStep:
        print("ready", flush=True)
        return 0
    print("the pipeline finished without taking a step", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
