"""End-to-end, layer-by-layer benchmark of mine → compile → serve.

Run ``python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``e2ebench/README.md``.
"""
