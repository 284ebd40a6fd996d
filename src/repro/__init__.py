"""repro — a laptop-scale reproduction of the MLPerf Training Benchmark.

Subpackages
-----------
framework
    From-scratch NumPy autodiff framework (the PyTorch/TF substitute).
numerics
    Emulated reduced-precision weight formats (Figure 1 substrate).
metrics
    Quality metrics (top-k, BLEU, mAP, HR@K, move-match) and run statistics.
datasets
    Synthetic stand-ins for ImageNet / COCO / WMT / MovieLens.
models
    The seven reference models, scaled down but architecturally faithful.
go
    Go engine + MCTS + self-play (the MiniGo substrate).
suite
    The benchmark suite: Table 1 as executable objects.
core
    The paper's primary contribution: timing rules, structured logging,
    run aggregation, divisions, submissions, review, reporting.
systems
    Data-parallel system simulator used for the scaling studies (Figs 4/5).
telemetry
    Observability: run metrics, event streams and profiling hooks —
    zero-overhead no-ops until a session is activated — and the readers of
    the structured log (phase table, series, Chrome trace_event export).
"""

__version__ = "0.1.0"
