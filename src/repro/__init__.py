"""ExEA reproduction: explaining and repairing embedding-based entity alignment.

The package is organised as:

* :mod:`repro.kg` — knowledge-graph substrate (triples, graphs, alignments,
  datasets, OpenEA-format I/O).
* :mod:`repro.datasets` — synthetic DBP15K / OpenEA benchmark analogues and
  noise injection.
* :mod:`repro.embedding` — NumPy embedding machinery (optimizers, negative
  sampling, similarity, evaluation).
* :mod:`repro.models` — the four base EA models: MTransE, AlignE,
  GCN-Align, Dual-AMN.
* :mod:`repro.core` — the paper's contribution: explanation generation,
  alignment dependency graphs, and EA repair (the ExEA framework).
* :mod:`repro.baselines` — EALime, EAShapley, Anchor, LORE adapted to EA.
* :mod:`repro.llm` — simulated ChatGPT explainers and EA verification.
* :mod:`repro.metrics` — fidelity, sparsity, accuracy, precision/recall/F1.
* :mod:`repro.experiments` — experiment configs, runners and table
  formatting used by the benchmark harness.
* :mod:`repro.service` — explanation-as-a-service: one batching
  dispatcher per shard, versioned result cache, worker pool, client
  facades, shard servers, cluster control plane and the
  ``python -m repro.service`` CLI.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
