"""The benchmark in ``perfbench/`` imports and wraps twinet's public names.
Installing its tracer checks that every one of them still exists, so a
rename fails here and not only in a traced benchmark run."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_imports_and_wraps_twinet():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import workloads
        from spans import Tracer

        assert set(workloads.WORKLOADS) >= {"link-bulk", "sadr-gated",
                                            "pilot-redeploy"}
        tracer = Tracer()
        try:
            layers.install(tracer)
        finally:
            tracer.uninstall()
    finally:
        sys.path.remove(str(PERFBENCH))
