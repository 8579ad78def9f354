"""The CLI commands whose output bytes are pinned, importable without pytest.

`tests/test_golden.py` checks each against its fixture under tests/golden/
or its bench/digests.json digest, in process; `tools/portability.py` runs
the same commands under other Python interpreters.
"""

from __future__ import annotations

from itertools import permutations

OUT = "records.out"

# (name, argv); a case whose argv names OUT also checks that file.
CASES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("cqs_12_1_7", ("cqs", "12", "1", "7")),
    ("cqs_841_1_637_bound_12", ("cqs", "841", "1", "637", "--bound", "12")),
    ("cqs_9_1_2", ("cqs", "9", "1", "2")),
    ("cqs_17_3_11", ("cqs", "17", "3", "11")),
    ("cqs_smooth", ("cqs", "1", "0", "0")),
    # Long chains: an A_1999 chain at depth 2, and one inside `points` at depth 4.
    ("cqs_2000_1_1999", ("cqs", "2000", "1", "1999")),
    ("wps_1_1000_1001", ("wps", "1", "1000", "1001")),
    ("wps_4_25_841", ("wps", "4", "25", "841")),
    ("wps_explain_1_5_8", ("--explain", "wps", "1", "5", "8")),
    ("wps_2_4_5", ("wps", "2", "4", "5")),
    ("wps_2_4_6", ("wps", "2", "4", "6")),
    ("wps_1_5_7", ("wps", "1", "5", "7")),
    ("wps_1_4_5", ("wps", "1", "4", "5")),
    ("markov_classic_1000", ("markov", "classic", "--bound", "1000")),
    ("markov_gen_3_100", ("markov", "gen", "--n", "3", "--bound", "100")),
    ("markov_degenerations_4_50", ("markov", "degenerations", "--n", "4", "--bound", "50")),
    ("markov_candidates_3_4_19", ("markov", "candidates", "--n", "3", "--x", "4", "--y", "19")),
    ("density_50_100_200", ("density", "50", "100", "200")),
    ("density_csv_50_100_200", ("--csv", "density", "50", "100", "200")),
    ("density_jobs2_50_100_200", ("--jobs", "2", "density", "50", "100", "200")),
    ("density_1000_2000", ("density", "1000", "2000")),
    ("scan_12", ("scan", "12")),
    ("scan_12_jobs2", ("--jobs", "2", "scan", "12")),
    ("scan_12_csv", ("--csv", "scan", "12")),
    ("scan_12_csv_jobs2", ("--csv", "--jobs", "2", "scan", "12")),
    ("scan_12_quiet", ("--quiet", "scan", "12")),
    ("scan_12_out_jobs1", ("--jobs", "1", "scan", "12", "--out", OUT)),
    ("scan_12_out_jobs2", ("--jobs", "2", "scan", "12", "--out", OUT)),
    ("scan_12_csv_out_jobs1", ("--csv", "--jobs", "1", "scan", "12", "--out", OUT)),
    ("scan_12_csv_out_jobs2", ("--csv", "--jobs", "2", "scan", "12", "--out", OUT)),
    ("scan_12_explain_out_jobs2", ("--explain", "--jobs", "2", "scan", "12", "--out", OUT)),
    ("scan_12_quiet_out", ("--quiet", "scan", "12", "--out", OUT)),
)


# The benchmark's commands that reach `wps`, in the argv spelling
# bench/digests.json keys them by: scan_box, its CSV twin and their
# `--jobs 2` runs, the six orderings of each Markov-square plane and the
# two `markov degenerations`; and its start-up probe `cqs 1 1 1`.  The
# tests read the digests and never write them.
BENCH_SCAN_OUT = ".bench_out/tmp/scan.out"
BENCH_MARKOV_PLANES = ((169, 1156, 1755625), (25, 37636, 8392609))
BENCH_SCANS = (
    ("--jobs", "1", "scan", "60", "--out", BENCH_SCAN_OUT),
    ("--jobs", "1", "--csv", "scan", "60", "--out", BENCH_SCAN_OUT),
    ("--jobs", "2", "scan", "60", "--out", BENCH_SCAN_OUT),
    ("--jobs", "2", "--csv", "scan", "60", "--out", BENCH_SCAN_OUT),
    *(("wps", *map(str, order)) for plane in BENCH_MARKOV_PLANES for order in permutations(plane)),
    ("markov", "degenerations", "--n", "3", "--bound", "10000"),
    ("markov", "degenerations", "--n", "5", "--bound", "3000"),
    ("cqs", "1", "1", "1"),
)
BENCH_IDS = ["scan_box", "scan_box_csv", "scan_box_jobs2", "scan_box_csv_jobs2"] + [
    "_".join(argv).replace("-", "") for argv in BENCH_SCANS[4:]
]
