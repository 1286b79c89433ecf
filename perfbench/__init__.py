"""The repository's end-to-end benchmark: three journeys, one command.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in a fresh interpreter with a pinned
hash seed and prints, as its last line, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer split (``--trace 1``).
See ``perfbench/README.md``.
"""
