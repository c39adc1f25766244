"""Entry point for the benchmark's instrumented child processes.

    python3 perfbench/child.py trace OUT_DIR -- SWEEP ARGS...
        run one `fultoncheck` command under the tracer; writes
        OUT_DIR/summary.json (per-layer metrics) and OUT_DIR/spans.bin
    python3 perfbench/child.py fault -- SWEEP ARGS...
        run one command with a deliberately wrong `sweeps.lr_coefficient`,
        so the benchmark can show that its verdict gate rejects the report

The package comes from PYTHONPATH, which the benchmark points at `src/`.
"""

from __future__ import annotations

import sys


def _planted_fault() -> None:
    from fultoncheck import sweeps
    from fultoncheck.littlewood import lr_coefficient as real

    def corrupted(mu, nu, lam):
        if (mu.trimmed().parts, nu.trimmed().parts, lam.trimmed().parts) == (
            (2, 1), (2, 1), (3, 2, 1),
        ):
            return 1  # the true coefficient is 2
        return real(mu, nu, lam)

    sweeps.lr_coefficient = corrupted


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: child.py {trace OUT_DIR|fault} -- SWEEP ARGS...", file=sys.stderr)
        return 2
    split = argv.index("--")
    mode, cli_args = argv[:split], argv[split + 1:]
    if mode[:1] == ["trace"] and len(mode) == 2:
        from tracing import run_traced

        return run_traced(cli_args, mode[1])
    if mode == ["fault"]:
        from fultoncheck import cli

        _planted_fault()
        return cli.main(cli_args)
    print(f"unknown mode: {' '.join(mode)}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
