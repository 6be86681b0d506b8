"""Check that an nqg launch peaks within a memory bound per cell over
`nqg --help`.

    python tests/peak_over_help.py --cells N --bytes-per-cell B ARGV...

Runs `nqg --help`, then `nqg ARGV...`, each with stdout to /dev/null (a
launch that fails fails the check), and reads their peak resident sizes
as getrusage reports them for this process's waited-for children.  Exits
1, naming the launch and both peaks, when the second peak is more than
B * N bytes over the first.
"""

import argparse
import resource
import subprocess
import sys


def peak(argv):
    """Run nqg argv; return the highest peak RSS, in kB, of the children
    run so far."""
    subprocess.run(["nqg", *argv], stdout=subprocess.DEVNULL, check=True)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cells", type=int, required=True,
                    help="cells of the table the launch works on")
    ap.add_argument("--bytes-per-cell", type=float, required=True,
                    help="bytes per cell the launch may peak over --help")
    ap.add_argument("argv", nargs=argparse.REMAINDER,
                    help="the nqg command line")
    args = ap.parse_args(argv)
    base = peak(["--help"])
    job = peak(args.argv)
    if (job - base) * 1024 > args.bytes_per_cell * args.cells:
        print("nqg %s peaked at %d kB, over --help's %d kB by more than %g "
              "bytes per cell of %d" % (" ".join(args.argv), job, base,
                                        args.bytes_per_cell, args.cells),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
