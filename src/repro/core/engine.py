"""Vectorized batch explanation engine with shared embedding & neighborhood caches.

The seed implementation explained every EA pair independently: each call
re-derived neighbourhoods with set-based BFS, re-enumerated relation
paths, embedded them one vector at a time through string-keyed dict
lookups, and normalised a fresh little similarity matrix per pair.  The
:class:`ExplanationEngine` below turns that hot path into an
integer-indexed, NumPy-vectorized pipeline shared across pairs:

1. neighbourhoods come from the KG-level memoized integer BFS
   (:meth:`repro.kg.KnowledgeGraph.entities_within_hops`);
2. relation paths come from one memoized grouped walk per central entity
   (:meth:`repro.kg.KGIndex.walks_from`) — the DFS ball around an entity
   is explored once no matter how many of its neighbours are queried —
   and are cached per ``(entity, neighbour)`` endpoint pair together with
   their integer entity/relation ids;
3. the embeddings of *all* new paths in a batch are computed in one shot —
   the precomputed ids are gathered into arrays grouped by path length,
   summed with fancy indexing (Eq. 2), stacked into a single matrix, and
   L2-normalised once;
4. each pair's bidirectional (mutual nearest neighbour) matching is a
   small dot product of pre-normalised rows — no per-pair re-embedding or
   re-normalisation.

``explain()`` is the batch-of-one case of ``explain_batch()``, so single
and batched calls produce identical explanations.

Cache-invalidation contract
---------------------------

* Everything the engine caches (endpoint path lists, embedding rows, id
  maps, sorted neighbourhoods) is guarded by the two graphs'
  :attr:`~repro.kg.KnowledgeGraph.version` counters and the model's
  :attr:`~repro.models.EAModel.embedding_version`.  A model refit drops
  the derived state wholesale; a KG mutation is reconciled *scoped* when
  the graph's bounded mutation log covers the span: only endpoint caches
  whose central entity falls inside the mutation's ``max_hops`` blast
  radius are evicted, everything else (including the embedding rows of
  surviving path blocks) stays live across the generation.  When the log
  cannot cover the span the engine falls back to the wholesale drop (the
  fidelity protocol removes triples mid-experiment, so both paths are
  exercised in practice).
* KG-level structural memos (adjacency index, hop sets, walk cache) live
  on :class:`repro.kg.KnowledgeGraph` / :class:`repro.kg.KGIndex` and are
  invalidated by the graph itself on mutation.
* The engine never mutates the alignment it is given; alignment-dependent
  state (the matched-neighbour lists) is recomputed per call, which is
  cheap once neighbourhoods and the reverse alignment index are O(1)
  lookups.
"""

from __future__ import annotations

import numpy as np

from ..embedding import mutual_nearest_pairs
from ..kg import EADataset
from ..models import EAModel
from .explanation.paths import RelationPath
from .explanation.subgraph import Explanation, MatchedPath

_EPS = 1e-12

#: Batch size from which per-pair mutual-NN matmuls are fused into blocked
#: gemms (one 3-D batched matmul per block shape).  Below this the plain
#: per-pair dot products win — no stacking overhead.
_FUSE_MIN_PLANS = 4

#: Scoped invalidation leaves dead rows behind in the embedding store
#: (their endpoint blocks were evicted).  Once the dead fraction crosses
#: this bound the store is rebuilt wholesale to reclaim memory.
_STORE_DEAD_ROW_FACTOR = 4
_STORE_DEAD_ROW_MIN = 4096

#: Rows :meth:`PathEmbeddingStore.append` embeds and normalises per step.
#: Repair batches bring thousands of new paths at once; blocks keep the
#: temporaries small and are written straight into the store.
_APPEND_BLOCK_ROWS = 256

#: Anything answering ``targets_of(source) -> set[str]`` — a full
#: :class:`repro.kg.AlignmentSet` or a live :class:`repro.kg.AlignmentUnionView`.
AlignmentLike = object


class PathEmbeddingStore:
    """One growing matrix of unit-normalised path embeddings (Eq. 2).

    The engine appends the embeddings of new endpoint blocks (all paths of
    one ``(central, neighbour)`` pair) in vectorised batches and addresses
    them by row range afterwards — no per-path bookkeeping is needed
    because a path's ``source``/``target`` fields tie it to exactly one
    endpoint pair.  Rows are normalised exactly like
    :func:`repro.embedding.cosine_matrix` normalises its inputs, so
    gathered-row dot products reproduce its output bit-for-bit.  The
    owning engine resets the store whenever the model's matrices or either
    graph change version.
    """

    def __init__(self, model: EAModel) -> None:
        self.model = model
        self._unit: np.ndarray | None = None
        self._size = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of appended rows (including rows no longer referenced)."""
        return self._size

    def reset(self) -> None:
        """Drop every stored row (model refit or graph mutation)."""
        self._unit = None
        self._size = 0

    def unit_rows(self, row_ids: np.ndarray) -> np.ndarray:
        """Gather unit-normalised embedding rows by id."""
        assert self._unit is not None
        return self._unit[row_ids]

    def append(self, id_pairs: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> int:
        """Embed *id_pairs* into the store; returns the base row id.

        Each item is ``(entity_ids, relation_ids)`` already mapped into the
        model's index (the engine precomputes them during path
        enumeration), so embedding needs no string lookups.  Rows
        ``base .. base + len(id_pairs) - 1`` follow input order.  They are
        embedded and normalised in place, :data:`_APPEND_BLOCK_ROWS` at a
        time, so a large batch needs no full-size temporaries; each row is
        computed on its own, so the block split does not change a bit.
        """
        assert self.model.entity_matrix is not None
        width = 2 * self.model.entity_matrix.shape[1]
        base = self._size
        # Amortised append: double the backing capacity instead of
        # re-concatenating the whole matrix on every small batch.
        needed = base + len(id_pairs)
        if self._unit is None:
            capacity = max(needed, 256)
            self._unit = np.zeros((capacity, width))
        elif needed > self._unit.shape[0]:
            capacity = max(needed, 2 * self._unit.shape[0])
            grown = np.zeros((capacity, width))
            grown[:base] = self._unit[:base]
            self._unit = grown
        for start in range(0, len(id_pairs), _APPEND_BLOCK_ROWS):
            block = id_pairs[start : start + _APPEND_BLOCK_ROWS]
            rows = self._unit[base + start : base + start + len(block)]
            self._embed_into(block, rows)
            rows /= np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), _EPS)
        self._size = needed
        return base

    # ------------------------------------------------------------------
    def _embed_into(
        self, id_pairs: list[tuple[tuple[int, ...], tuple[int, ...]]], out: np.ndarray
    ) -> None:
        """Eq. 2 for a batch of paths into the rows of *out*, grouped by length.

        The entity part averages the source and intermediate entities (the
        final neighbour is excluded), the relation part averages the
        relation embeddings; the two halves are written side by side —
        exactly :func:`repro.core.explanation.paths.path_embedding`, many
        rows at a time over precomputed id tuples.
        """
        model = self.model
        assert model.entity_matrix is not None
        entity_matrix = model.entity_matrix
        relation_matrix = model.relation_embedding_matrix()
        dim = entity_matrix.shape[1]
        by_length: dict[int, list[int]] = {}
        for position, (_, relation_ids) in enumerate(id_pairs):
            by_length.setdefault(len(relation_ids), []).append(position)
        for length, positions in by_length.items():
            entity_ids = np.array([id_pairs[i][0] for i in positions], dtype=np.int64)
            relation_ids = np.array([id_pairs[i][1] for i in positions], dtype=np.int64)
            out[positions, :dim] = entity_matrix[entity_ids].sum(axis=1) / length
            out[positions, dim:] = relation_matrix[relation_ids].sum(axis=1) / length


class ExplanationEngine:
    """Batch explanation kernels + caches shared by generator and repairer."""

    def __init__(self, model: EAModel, dataset: EADataset, config) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config
        self.store = PathEmbeddingStore(model)
        #: endpoint key -> (RelationPath tuple, (entity_ids, relation_ids) tuple)
        self._path_lists: dict[
            tuple[int, str, str],
            tuple[tuple[RelationPath, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]],
        ] = {}
        #: endpoint key -> embedding row ids in the store
        self._path_rows: dict[tuple[int, str, str], np.ndarray] = {}
        #: per-side lookup tables: kg-local entity/relation id -> model id
        self._id_maps: dict[int, tuple[list[int], list[int], bool]] = {}
        #: per-side table: kg-local triple id -> model relation id
        self._triple_relation_ids: dict[int, list[int]] = {}
        #: (side, entity) -> sorted neighbourhood tuple
        self._sorted_neighborhoods: dict[tuple[int, str], tuple[str, ...]] = {}
        self._kg_versions = (dataset.kg1.version, dataset.kg2.version)
        self._model_version = model.embedding_version
        self._dead_store_rows = 0

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def _check_versions(self) -> None:
        """Reconcile the engine caches with the current graph/model versions.

        A model refit always drops everything (embedding rows are gone).
        A KG mutation first tries the *scoped* path: if both graphs' bounded
        mutation logs still cover the span since the engine's last sync,
        only endpoint caches whose central entity lies inside the mutation
        blast radius (``KGIndex.blast_radius`` at ``max_hops``) are
        evicted — every cached path of an entity, and its sorted
        neighbourhood, can only have changed if some mutated edge lies
        within ``max_hops`` of it, i.e. if the entity is in the ball.
        Embedding rows of surviving blocks stay valid because the store is
        not reset.  The integer id maps are always rebuilt: entity/relation
        ids shift when the inventory grows.  If a log cannot cover the
        span, fall back to the pre-PR-8 wholesale drop.
        """
        versions = (self.dataset.kg1.version, self.dataset.kg2.version)
        if self.model.embedding_version != self._model_version:
            self._model_version = self.model.embedding_version
            self._reset_caches(versions)
            return
        if versions == self._kg_versions:
            return
        records1 = self.dataset.kg1.mutations_since(self._kg_versions[0])
        records2 = self.dataset.kg2.mutations_since(self._kg_versions[1])
        if records1 is None or records2 is None:
            self._reset_caches(versions)
            return
        for side, records, kg in ((1, records1, self.dataset.kg1), (2, records2, self.dataset.kg2)):
            if not records:
                continue
            affected = kg.blast_radius(records, self.config.max_hops)
            if not affected:
                continue
            for key in [k for k in self._sorted_neighborhoods if k[0] == side and k[1] in affected]:
                del self._sorted_neighborhoods[key]
            for key in [k for k in self._path_lists if k[0] == side and k[1] in affected]:
                del self._path_lists[key]
            for key in [k for k in self._path_rows if k[0] == side and k[1] in affected]:
                self._dead_store_rows += len(self._path_rows.pop(key))
        self._id_maps.clear()
        self._triple_relation_ids.clear()
        self._kg_versions = versions
        # Reclaim the store once evicted blocks dominate the live rows.
        live = self.store.size - self._dead_store_rows
        if self._dead_store_rows > max(
            _STORE_DEAD_ROW_MIN, _STORE_DEAD_ROW_FACTOR * max(live, 1)
        ):
            self._path_rows.clear()
            self.store.reset()
            self._dead_store_rows = 0

    def _reset_caches(self, versions: tuple[int, int]) -> None:
        """The wholesale invalidation path (model refit or uncovered span)."""
        self._path_lists.clear()
        self._path_rows.clear()
        self._id_maps.clear()
        self._triple_relation_ids.clear()
        self._sorted_neighborhoods.clear()
        self.store.reset()
        self._dead_store_rows = 0
        self._kg_versions = versions

    def _maps(self, side: int) -> tuple[list[int], list[int], bool]:
        """kg-local id -> model id lookup tables for KG *side* (1 or 2).

        Entities/relations absent from the model's index map to ``-1``;
        path construction rejects those with a KeyError exactly like the
        string-keyed lookups used to.  The third element is True when both
        tables are complete (no ``-1``), letting the hot path skip the
        guard entirely.
        """
        cached = self._id_maps.get(side)
        if cached is None:
            kg = self.dataset.kg1 if side == 1 else self.dataset.kg2
            kg_index = kg.index()
            model_index = self.model.index
            assert model_index is not None
            entity_map = [model_index.entity_to_id.get(e, -1) for e in kg_index.entities]
            relation_map = [model_index.relation_to_id.get(r, -1) for r in kg_index.relations]
            clean = -1 not in entity_map and -1 not in relation_map
            cached = (entity_map, relation_map, clean)
            self._id_maps[side] = cached
        return cached

    def _triple_relations(self, side: int) -> list[int]:
        """Per-triple model relation ids (kg triple id -> model relation id)."""
        cached = self._triple_relation_ids.get(side)
        if cached is None:
            kg = self.dataset.kg1 if side == 1 else self.dataset.kg2
            relation_map = self._maps(side)[1]
            cached = [relation_map[r] for r in kg.index().relation_ids.tolist()]
            self._triple_relation_ids[side] = cached
        return cached

    def neighborhood(self, side: int, entity: str) -> frozenset[str]:
        """Entities within ``max_hops`` of *entity* in KG ``side`` (1 or 2)."""
        kg = self.dataset.kg1 if side == 1 else self.dataset.kg2
        return kg.entities_within_hops(entity, self.config.max_hops)

    def _sorted_neighborhood(self, side: int, entity: str) -> tuple[str, ...]:
        key = (side, entity)
        cached = self._sorted_neighborhoods.get(key)
        if cached is None:
            cached = tuple(sorted(self.neighborhood(side, entity)))
            self._sorted_neighborhoods[key] = cached
        return cached

    def _endpoint_paths(
        self, side: int, source: str, neighbor: str
    ) -> tuple[tuple[RelationPath, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
        """Capped paths plus their model-id tuples, cached per endpoint pair."""
        key = (side, source, neighbor)
        cached = self._path_lists.get(key)
        if cached is None:
            kg = self.dataset.kg1 if side == 1 else self.dataset.kg2
            kg_index = kg.index()
            source_id = kg_index.entity_to_id.get(source)
            neighbor_id = kg_index.entity_to_id.get(neighbor)
            if source_id is None or neighbor_id is None:
                raw = []
            else:
                raw = kg_index.walks_from(source_id, self.config.max_hops).get(neighbor_id, [])
            raw = raw[: self.config.max_paths_per_neighbor]
            entity_map, _, clean = self._maps(side)
            triple_relation_map = self._triple_relations(side)
            triples_of_index = kg_index.triples
            paths: list[RelationPath] = []
            id_pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            for triple_ids, node_ids in raw:
                path = RelationPath(
                    source=source,
                    target=neighbor,
                    triples=tuple(map(triples_of_index.__getitem__, triple_ids)),
                )
                entity_ids = tuple(map(entity_map.__getitem__, node_ids))
                relation_ids = tuple(map(triple_relation_map.__getitem__, triple_ids))
                if not clean and (
                    any(i < 0 for i in entity_ids) or any(i < 0 for i in relation_ids)
                ):
                    raise KeyError(
                        f"path {path} mentions an entity/relation unknown to the model index"
                    )
                paths.append(path)
                id_pairs.append((entity_ids, relation_ids))
            cached = (tuple(paths), tuple(id_pairs))
            self._path_lists[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Neighbour matching
    # ------------------------------------------------------------------
    def matched_neighbors(
        self, source: str, target: str, alignment: AlignmentLike
    ) -> list[tuple[str, str]]:
        """Neighbour pairs of (source, target) aligned by *alignment*.

        Sorted on both sides for determinism; the central pair itself is
        never returned.
        """
        self._check_versions()
        neighbors1 = self._sorted_neighborhood(1, source)
        neighbors2 = self.neighborhood(2, target)
        # Copy-free lookup when the alignment provides one (AlignmentSet and
        # AlignmentUnionView both do); one lookup runs per neighbour per pair.
        lookup = getattr(alignment, "targets_view", None) or alignment.targets_of
        matched: list[tuple[str, str]] = []
        for neighbor1 in neighbors1:
            candidates = lookup(neighbor1)
            if not candidates:
                continue
            for neighbor2 in sorted(candidates):
                if neighbor2 in neighbors2 and (neighbor1, neighbor2) != (source, target):
                    matched.append((neighbor1, neighbor2))
        return matched

    # ------------------------------------------------------------------
    # Batch explanation
    # ------------------------------------------------------------------
    def explain_batch(
        self,
        pairs: list[tuple[str, str]],
        alignment: AlignmentLike,
        neighbor_pairs_by_pair: dict[tuple[str, str], list[tuple[str, str]]] | None = None,
    ) -> dict[tuple[str, str], Explanation]:
        """Explanations for *pairs* under one shared *alignment*.

        Args:
            pairs: EA pairs to explain (duplicates are collapsed).
            alignment: the reference alignment for neighbour matching.
            neighbor_pairs_by_pair: optional precomputed matched-neighbour
                lists (the repair confidence oracle computes them anyway
                for its cache key and passes them here to avoid repeating
                the work).
        """
        self._check_versions()
        config = self.config
        kg1, kg2 = self.dataset.kg1, self.dataset.kg2
        path_rows = self._path_rows

        results: dict[tuple[str, str], Explanation] = {}
        plans: list[tuple[Explanation, set[tuple[str, str]], list, list, list, list]] = []
        #: endpoint blocks awaiting embedding, in discovery order
        new_blocks: list[tuple[tuple[int, str, str], int]] = []
        new_id_pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        scheduled: set[tuple[int, str, str]] = set()

        for source, target in dict.fromkeys(pairs):
            explanation = Explanation(
                source=source,
                target=target,
                candidate_triples1=kg1.triples_within_hops(source, config.max_hops),
                candidate_triples2=kg2.triples_within_hops(target, config.max_hops),
            )
            results[(source, target)] = explanation
            if neighbor_pairs_by_pair is not None and (source, target) in neighbor_pairs_by_pair:
                neighbor_pairs = neighbor_pairs_by_pair[(source, target)]
            else:
                neighbor_pairs = self.matched_neighbors(source, target, alignment)
            if not neighbor_pairs:
                continue
            paths1: list[RelationPath] = []
            paths2: list[RelationPath] = []
            keys1: list[tuple[int, str, str]] = []
            keys2: list[tuple[int, str, str]] = []
            for neighbor1, neighbor2 in neighbor_pairs:
                key1 = (1, source, neighbor1)
                found1, ids1 = self._endpoint_paths(1, source, neighbor1)
                if found1:
                    paths1.extend(found1)
                    keys1.append(key1)
                    if key1 not in path_rows and key1 not in scheduled:
                        scheduled.add(key1)
                        new_blocks.append((key1, len(ids1)))
                        new_id_pairs.extend(ids1)
                key2 = (2, target, neighbor2)
                found2, ids2 = self._endpoint_paths(2, target, neighbor2)
                if found2:
                    paths2.extend(found2)
                    keys2.append(key2)
                    if key2 not in path_rows and key2 not in scheduled:
                        scheduled.add(key2)
                        new_blocks.append((key2, len(ids2)))
                        new_id_pairs.extend(ids2)
            if not paths1 or not paths2:
                continue
            plans.append((explanation, set(neighbor_pairs), paths1, paths2, keys1, keys2))

        if not plans and not new_id_pairs:
            return results

        # One shot: embed + normalise every new path in the batch, then pin
        # the row range of every new endpoint block (reused across pairs in
        # this batch and across future calls).
        if new_id_pairs:
            base = self.store.append(new_id_pairs)
            offset = base
            for key, count in new_blocks:
                path_rows[key] = np.arange(offset, offset + count, dtype=np.int64)
                offset += count

        # Per pair: a small dot product of pre-normalised rows and the
        # mutual-nearest-neighbour pass of the paper's Section III-A.
        similarities = self._plan_similarities(plans)
        for (explanation, neighbor_pair_set, paths1, paths2, keys1, keys2), similarity in zip(
            plans, similarities
        ):
            for i, j in mutual_nearest_pairs(similarity):
                path1, path2 = paths1[i], paths2[j]
                # Only keep matches that actually connect a matched
                # neighbour pair: a pair of mutually-nearest paths leading
                # to unrelated neighbours is not semantic evidence.
                if (path1.target, path2.target) not in neighbor_pair_set:
                    continue
                score = float(similarity[i, j])
                if score < config.min_path_similarity:
                    continue
                explanation.matched_paths.append(MatchedPath(path1, path2, score))
            explanation.matched_paths.sort(key=lambda m: -m.similarity)
        return results

    def _plan_similarities(self, plans: list) -> list[np.ndarray]:
        """One similarity matrix per plan, fused into blocked gemms at scale.

        Small batches run the straightforward per-pair ``unit1 @ unit2.T``.
        Larger batches group the plans by block shape ``(n1, n2)`` — path
        counts are capped per neighbour, so shapes repeat heavily — and
        compute each group with a single 3-D batched matmul over stacked
        row gathers.  NumPy dispatches the identical gemm per slice of a
        stacked operand, so each fused block is bit-identical to its
        per-pair matmul (asserted in ``tests/core/test_engine.py``).
        """
        path_rows = self._path_rows
        row_sets: list[tuple[np.ndarray, np.ndarray]] = []
        for _, _, _, _, keys1, keys2 in plans:
            rows1 = np.concatenate([path_rows[key] for key in keys1])
            rows2 = np.concatenate([path_rows[key] for key in keys2])
            row_sets.append((rows1, rows2))
        out: list[np.ndarray | None] = [None] * len(plans)
        if len(plans) < _FUSE_MIN_PLANS:
            for position, (rows1, rows2) in enumerate(row_sets):
                out[position] = self.store.unit_rows(rows1) @ self.store.unit_rows(rows2).T
            return out
        groups: dict[tuple[int, int], list[int]] = {}
        for position, (rows1, rows2) in enumerate(row_sets):
            groups.setdefault((len(rows1), len(rows2)), []).append(position)
        for members in groups.values():
            if len(members) == 1:
                position = members[0]
                rows1, rows2 = row_sets[position]
                out[position] = self.store.unit_rows(rows1) @ self.store.unit_rows(rows2).T
                continue
            stack1 = self.store.unit_rows(np.stack([row_sets[i][0] for i in members]))
            stack2 = self.store.unit_rows(np.stack([row_sets[i][1] for i in members]))
            fused = np.matmul(stack1, stack2.transpose(0, 2, 1))
            for slot, position in enumerate(members):
                out[position] = fused[slot]
        return out
