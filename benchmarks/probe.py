"""Set-up probe: seconds from process start to the first simulated deployment.

    python3 benchmarks/probe.py T0 -- <fogdist CLI arguments>

T0 is `time.monotonic()` read by the parent just before it started this
process; the clock is system-wide, so the difference covers interpreter
start, imports, config parsing, profile resolution and the agent build or
checkpoint load.  The first `FogEnvironment.execute` call stops the command
and the elapsed seconds are printed as the last line.  Nothing but the
program is imported before the stop.
"""
import sys
import time


class FirstDeployment(Exception):
    """Raised by the first deployment to end the command there."""


def main() -> int:
    t0 = float(sys.argv[1])
    argv = sys.argv[sys.argv.index("--") + 1:]
    from fogdist import cli
    from fogdist.env import FogEnvironment

    def stop(*_args, **_kwargs):
        raise FirstDeployment(time.monotonic() - t0)

    FogEnvironment.execute = stop
    try:
        cli.main(argv)
    except FirstDeployment as reached:
        print(reached.args[0])
        return 0
    print("the command finished without a deployment", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
