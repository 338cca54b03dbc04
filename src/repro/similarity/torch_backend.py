"""Optional torch tensor backend for the similarity hot paths.

:class:`TorchBackend` is the accelerator-class backend behind the same
registry as the ``python`` / ``numpy`` / ``sharded`` backends (see
``docs/ARCHITECTURE.md``, "How to add a backend").  It mirrors
:class:`~repro.similarity.backend.NumpyBackend`'s compiled-corpus layout --
the same per-transaction tag-path / content-class / uid id arrays, the same
shared tag-path matrix and per-content-class blocks -- but
evaluates the batched gamma-match kernels as padded tensor reductions on a
configurable torch device.

Device selection and dtype policy
---------------------------------
The backend spec is ``"torch[:device][:block=N]"`` (the ``block=`` part
configures the tile budget of the batched kernels, see *Tiling* below):

* ``"torch"`` -- CPU, float64: **bit-exact** with the scalar reference.
  Every item similarity is gathered from the same content-class blocks as
  the numpy engine and blended with the same elementwise IEEE-754
  operations in float64; the gamma-match reductions are max/any reductions
  (order-independent, hence exact), and every accumulation that feeds a
  comparison replays the reference left-to-right order.  The parity suite
  (``tests/test_torch_backend.py``) asserts ``==`` on floats, assignments
  and whole clusterings.
* ``"torch:cuda"`` -- CUDA, float64: the same kernels on the GPU.
  Elementwise float64 arithmetic is IEEE-754 on CUDA too, so CPU/CUDA
  results agree in practice, but cross-device bit-exactness is *documented
  as a tolerance* rather than asserted: library versions may fuse
  operations differently.  The lowest-index tie-break is preserved exactly
  on every device (the final argmax runs on the host over the downloaded
  similarity matrix).
* ``"torch:mps"`` -- Apple MPS, float32 (MPS has no float64): results carry
  float32 rounding and are compared with an explicit tolerance; threshold
  decisions for similarities within ~1e-6 of ``gamma`` may differ from the
  float64 backends.  Tie-breaks remain lowest-index.

Unavailable dependencies raise
:class:`~repro.similarity.backend.BackendUnavailableError` with an
actionable message at *config-resolution time* (``ClusteringConfig`` /
CLI ``--backend torch``), never deep inside a fit; the core install stays
numpy-only.

Tiling
------
Like the numpy engine, the tensor kernels evaluate in
``(row_tile x column_tile)`` blocks whose row-item and column-item totals
each stay within the configured budget (``block=N``; default
:data:`~repro.similarity.backend.DEFAULT_BLOCK_ITEMS`, ``block=0`` =
unbounded).  A tile fuses several column transactions into one padded 4-D
gather + reduction -- far fewer host/device round trips than the
historical one-column-at-a-time pass -- and bounds peak device scratch at
roughly ``(row_tile_items_padded x column_tile_items_padded)`` elements
per scratch tensor regardless of corpus size (padding rounds each
transaction up to its tile's longest one).  Tiling is result-invariant:
the masked ``amax``/``any`` reductions consume the same gathered floats
per transaction pair for every tile size, so the CPU float64 bit-exactness
and the accelerator tolerance policy above are unchanged.

Sharding policy
---------------
Torch runtimes must not be re-initialised inside multiprocessing pool
workers (CUDA contexts cannot survive ``fork`` and every spawned worker
would pay a fresh runtime/device initialisation).  The backend therefore
refuses nested process sharding cleanly: ``"sharded:N:torch"`` is rejected
at option-parsing time, and cluster-sharded refinement with a torch engine
degrades to the warm in-process serial path
(:func:`~repro.network.mpengine.refine_clusters`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.similarity.backend import (
    BackendUnavailableError,
    NumpyBackend,
    split_block_option,
)
from repro.transactions.items import TreeTupleItem
from repro.transactions.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.similarity.transaction import SimilarityEngine

#: Devices the backend knows how to validate up front.  Anything else is
#: handed to ``torch.device`` and rejected with the parse error it raises.
KNOWN_DEVICE_TYPES = ("cpu", "cuda", "mps")


def _load_torch():
    """Import torch, raising :class:`BackendUnavailableError` if absent."""
    try:
        import torch
    except ImportError as error:
        raise BackendUnavailableError(
            "the 'torch' similarity backend requires PyTorch, which is not "
            "installed; install the CPU wheel with 'pip install torch "
            "--index-url https://download.pytorch.org/whl/cpu' (or select "
            "--backend numpy / python, which need no optional dependencies)"
        ) from error
    return torch


def torch_importable() -> bool:
    """Return True when PyTorch can be imported in this environment."""
    try:
        _load_torch()
    except BackendUnavailableError:
        return False
    return True


def _resolve_device(torch, spec: Optional[str]):
    """Resolve a device spec (``None``/``"cuda"``/``"cuda:1"``/...).

    Raises ``ValueError`` for specs torch cannot parse and
    :class:`BackendUnavailableError` for well-formed devices that are not
    usable in this environment (e.g. ``cuda`` on a CPU-only wheel), so the
    failure surfaces at config-resolution time with an actionable message.
    """
    name = spec or "cpu"
    try:
        device = torch.device(name)
    except (RuntimeError, ValueError, TypeError) as error:
        raise ValueError(
            f"invalid torch device {name!r} for the torch backend "
            f"(expected 'torch[:device]' with a device such as "
            f"{', '.join(KNOWN_DEVICE_TYPES)})"
        ) from error
    if device.type == "cuda" and not torch.cuda.is_available():
        raise BackendUnavailableError(
            "the 'torch:cuda' backend requires a CUDA-enabled PyTorch build "
            "and a visible GPU (torch.cuda.is_available() is false); select "
            "'torch' for the CPU tensor engine instead"
        )
    if device.type == "mps":
        mps = getattr(getattr(torch, "backends", None), "mps", None)
        if mps is None or not mps.is_available():
            raise BackendUnavailableError(
                "the 'torch:mps' backend requires an Apple-silicon PyTorch "
                "build with MPS support (torch.backends.mps.is_available() "
                "is false); select 'torch' for the CPU tensor engine instead"
            )
    return device


def _split_torch_options(options: Optional[str]) -> tuple:
    """Split ``"[device][:block=N]"`` options into ``(device, block)``.

    The ``block=`` part may appear before or after the device part;
    anything beyond one device part raises ``ValueError``.
    """
    spec = f"torch:{options}" if options else "torch"
    rest, block = split_block_option(options, spec)
    if len(rest) > 1:
        raise ValueError(
            f"invalid torch backend options {options!r} "
            "(expected 'torch[:device][:block=N]')"
        )
    return (rest[0] if rest else None), block


def validate_torch_spec(options: Optional[str] = None) -> None:
    """Validate a ``torch[:device][:block=N]`` spec without building a backend.

    Called by :func:`repro.similarity.backend.validate_backend_spec` (and
    through it by ``ClusteringConfig`` and the CLI) so an uninstalled
    torch, an unusable device or a malformed tile budget fails at
    config-resolution time.
    """
    device, _ = _split_torch_options(options)
    torch = _load_torch()
    _resolve_device(torch, device)


class TorchBackend(NumpyBackend):
    """Tensor backend: the numpy compiled layout evaluated by torch kernels.

    Shares the whole compilation pipeline with
    :class:`~repro.similarity.backend.NumpyBackend` -- the tag-path /
    content-class / uid registries, the pinned and transient compile
    caches, the content-class kernel -- and overrides the two batch
    kernels (:meth:`_pair_similarities`, :meth:`rank_items_batch`) with
    padded tensor reductions on the configured device.  Every derived entry
    point (``assign_all``, ``score_candidates``, ``nearest_representative``,
    ``transaction_similarity``, ``pairwise_transaction_similarity``)
    inherits the numpy backend's reference-order accumulation and
    lowest-index argmax, so the parity properties documented there carry
    over unchanged on CPU float64.
    """

    name = "torch"

    def __init__(self, engine: "SimilarityEngine", options: Optional[str] = None) -> None:
        torch = _load_torch()
        device, block_items = _split_torch_options(options)
        super().__init__(engine)
        # the tile budget is parsed from the torch option grammar
        # (device and block parts may mix), not by the numpy parser
        self.block_items = block_items
        self._torch = torch
        self.device_spec = device or "cpu"
        self.device = _resolve_device(torch, device)
        # MPS has no float64; everywhere else the kernels run in float64 so
        # CPU results are bit-exact with the scalar reference.
        self.dtype = torch.float32 if self.device.type == "mps" else torch.float64
        self._tp_tensor_cache = None

    # ------------------------------------------------------------------ #
    # Tensor views of the shared compiled state
    # ------------------------------------------------------------------ #
    def _tp_tensor(self):
        """Device tensor view of the dense tag-path similarity matrix.

        Rebuilt (and re-uploaded) only when the shared numpy matrix grew to
        cover new tag paths; the matrix object itself is never mutated in
        place, so a same-size cache is always current.
        """
        matrix = self._ensure_tp_matrix()
        cached = self._tp_tensor_cache
        if cached is None or cached.shape[0] != matrix.shape[0]:
            if not matrix.flags.writeable:
                # a store-attached matrix is a read-only memmap;
                # ``as_tensor`` would warn (and hand torch a non-writable
                # buffer), so upload from a private copy instead
                matrix = self._np.array(matrix)
            cached = self._torch.as_tensor(
                matrix, dtype=self.dtype, device=self.device
            )
            self._tp_tensor_cache = cached
        return cached

    def _index_tensor(self, values):
        """Device ``long`` tensor for an id array (advanced indexing)."""
        return self._torch.as_tensor(
            self._np.ascontiguousarray(values), dtype=self._torch.long
        ).to(self.device)

    # ------------------------------------------------------------------ #
    # Batch kernel
    # ------------------------------------------------------------------ #
    def _padded_ids(self, compiled_tile, values_of):
        """Padded ``(transactions, max_items)`` id array for one tile.

        *values_of* maps a compiled transaction to its per-item id array;
        shorter transactions are zero-padded (pad slots are excluded from
        every reduction through the validity masks).
        """
        np = self._np
        width = max(c.length for c in compiled_tile)
        padded = np.zeros((len(compiled_tile), width), dtype=np.intp)
        for position, compiled in enumerate(compiled_tile):
            padded[position, : compiled.length] = values_of(compiled)
        return padded

    def _tile_mask(self, compiled_tile):
        """Device validity mask ``(transactions, max_items)`` for one tile."""
        np = self._np
        width = max(c.length for c in compiled_tile)
        mask = np.zeros((len(compiled_tile), width), dtype=bool)
        for position, compiled in enumerate(compiled_tile):
            mask[position, : compiled.length] = True
        return self._torch.as_tensor(mask).to(self.device)

    def _pair_similarities(
        self,
        rows: Sequence[Transaction],
        columns: Sequence[Transaction],
        retain_rows: bool = True,
    ):
        """The (rows x columns) ``sim^gamma_J`` block via padded tensor tiles.

        Row and column transactions are partitioned into contiguous tiles
        whose item totals stay within
        :attr:`~repro.similarity.backend.NumpyBackend.effective_block_items`
        per side; each ``(row_tile x column_tile)`` pair is padded into
        ``(R, W_r)`` / ``(C, W_c)`` id tensors with validity masks and
        evaluated as one 4-D ``(R, W_r, C, W_c)`` gather + blend, fusing
        every column transaction of the tile into a single pair of masked
        ``amax``/``any`` gamma-match reductions (Eq. 2).  Matched-item and
        union counts reuse the numpy backend's exact integer set arithmetic
        on the host, so the returned float64 numpy matrix feeds the
        inherited entry points unchanged -- and because the reductions are
        order-free over the same gathered floats, every tile size produces
        the same bits.
        """
        np = self._np
        torch = self._torch
        f = self.config.f
        gamma = self.config.gamma
        sims = np.zeros((len(rows), len(columns)), dtype=np.float64)

        compiled_rows = [self._compile(row, retain_rows) for row in rows]
        compiled_columns = [self._compile(column) for column in columns]
        row_positions = [i for i, c in enumerate(compiled_rows) if c.length]
        column_positions = [j for j, c in enumerate(compiled_columns) if c.length]
        if not row_positions or not column_positions:
            return sims

        active_rows = [compiled_rows[i] for i in row_positions]
        active_columns = [compiled_columns[j] for j in column_positions]

        if f != 0.0:
            tp = self._tp_tensor()
        # --- content lookup block (skipped entirely when f == 1) ----------- #
        if f != 1.0:
            row_classes = np.unique(
                np.concatenate([c.content_ids for c in active_rows])
            )
            column_classes = np.unique(
                np.concatenate([c.content_ids for c in active_columns])
            )
            content, row_remap, column_remap = self._content_maps(
                row_classes, column_classes
            )
            content_t = torch.as_tensor(
                content, dtype=self.dtype, device=self.device
            )

        budget = self.effective_block_items
        row_spans = self._tile_spans([c.length for c in active_rows], budget)
        column_spans = self._tile_spans(
            [c.length for c in active_columns], budget
        )

        # per-column-tile tensors (padded ids, validity mask, device
        # uploads) are row-independent: build and upload them once instead
        # of once per (row tile x column tile) pair
        column_tiles = []
        for column_start, column_stop in column_spans:
            tile_columns = active_columns[column_start:column_stop]
            column_tiles.append(
                (
                    column_start,
                    tile_columns,
                    self._tile_mask(tile_columns),
                    self._index_tensor(
                        self._padded_ids(tile_columns, lambda c: c.tag_path_ids)
                    )
                    if f != 0.0
                    else None,
                    self._index_tensor(
                        self._padded_ids(
                            tile_columns, lambda c: column_remap[c.content_ids]
                        )
                    )
                    if f != 1.0
                    else None,
                )
            )

        for row_start, row_stop in row_spans:
            tile_rows = active_rows[row_start:row_stop]
            count = len(tile_rows)
            row_mask = self._tile_mask(tile_rows)
            if f != 0.0:
                row_tp = self._index_tensor(
                    self._padded_ids(tile_rows, lambda c: c.tag_path_ids)
                )
            if f != 1.0:
                row_ck = self._index_tensor(
                    self._padded_ids(
                        tile_rows, lambda c: row_remap[c.content_ids]
                    )
                )
            for (
                column_start,
                tile_columns,
                column_mask,
                column_tp,
                column_ck,
            ) in column_tiles:
                # item-similarity block: same arithmetic as the scalar
                # Eq. 1, including the f == 0 / f == 1 short-circuits.
                if f != 0.0:
                    structural = tp[
                        row_tp.unsqueeze(-1).unsqueeze(-1), column_tp
                    ]
                if f != 1.0:
                    contentpart = content_t[
                        row_ck.unsqueeze(-1).unsqueeze(-1), column_ck
                    ]
                if f == 1.0:
                    block = structural
                elif f == 0.0:
                    block = contentpart
                else:
                    block = f * structural + (1.0 - f) * contentpart
                if block.numel() > self.peak_scratch_entries:
                    self.peak_scratch_entries = block.numel()

                valid = row_mask.unsqueeze(-1).unsqueeze(-1) & column_mask
                masked = block.masked_fill(~valid, float("-inf"))
                # direction tr -> rep: per representative item, the best
                # row item(s) of each padded transaction row; pad slots
                # carry -inf maxima and are excluded through ``valid``.
                column_max = masked.amax(dim=1)
                qualifying = column_max >= gamma
                matched_rows = (
                    (block == column_max.unsqueeze(1))
                    & qualifying.unsqueeze(1)
                    & valid
                ).any(dim=3)
                # direction rep -> tr: per row item, its best item(s)
                # within each column transaction of the tile.
                row_max = masked.amax(dim=3)
                row_qualifies = row_max >= gamma
                matched_columns = (
                    (block == row_max.unsqueeze(-1))
                    & row_qualifies.unsqueeze(-1)
                    & valid
                ).any(dim=1)

                matched_rows_np = matched_rows.cpu().numpy()
                matched_columns_np = matched_columns.cpu().numpy()
                for position in range(count):
                    compiled = tile_rows[position]
                    sims_row = row_positions[row_start + position]
                    for column_index, column in enumerate(tile_columns):
                        matched = set(
                            compiled.uids[
                                matched_rows_np[
                                    position, : compiled.length, column_index
                                ]
                            ].tolist()
                        )
                        matched.update(
                            column.uids[
                                matched_columns_np[
                                    position, column_index, : column.length
                                ]
                            ].tolist()
                        )
                        union = len(compiled.uid_set | column.uid_set)
                        if union:
                            sims[
                                sims_row,
                                column_positions[column_start + column_index],
                            ] = len(matched) / union
        return sims

    # ------------------------------------------------------------------ #
    # Representative refinement (batch ranking)
    # ------------------------------------------------------------------ #
    def rank_items_batch(self, items: Sequence[TreeTupleItem]) -> List[float]:
        """Blended structural/content ranks via tiled device reductions.

        Both gathers walk the same ``(row_tile x column_tile)`` spans as
        the numpy engine (at most
        :attr:`~repro.similarity.backend.NumpyBackend.effective_block_items`
        items per side), bounding peak device scratch for arbitrarily
        large pools.  The structural sums are integer-valued (path
        multiplicities), hence exact under any tiling; the content ranks
        replay the reference left-to-right accumulation column by column
        across the ordered tiles, so on CPU float64 every rank is
        bit-identical to the scalar loop (same guarantee as the numpy
        backend, same per-class cosine block).
        """
        items = list(items)
        n = len(items)
        if not n:
            return []
        np = self._np
        torch = self._torch
        f = self.config.f
        gamma = self.config.gamma
        budget = self.effective_block_items
        item_spans = self._tile_spans([1] * n, budget)

        # --- structural ranking (per distinct complete path) --------------- #
        if f != 0.0:
            path_counts = {}
            for entry in items:
                path_counts[entry.path] = path_counts.get(entry.path, 0) + 1
            distinct_paths = list(path_counts)
            item_tp = self._index_tensor(
                np.array(
                    [self._tag_path_id(entry.tag_path) for entry in items],
                    dtype=np.intp,
                )
            )
            pool_tp = self._index_tensor(
                np.array(
                    [self._tag_path_id(path.tag_path()) for path in distinct_paths],
                    dtype=np.intp,
                )
            )
            tp_tensor = self._tp_tensor()
            counts = torch.as_tensor(
                np.array(
                    [path_counts[path] for path in distinct_paths],
                    dtype=np.float64,
                ),
                dtype=self.dtype,
                device=self.device,
            )
            zero = torch.zeros((), dtype=self.dtype, device=self.device)
            path_spans = self._tile_spans([1] * len(distinct_paths), budget)
            rank_s = torch.zeros(n, dtype=self.dtype, device=self.device)
            for row_start, row_stop in item_spans:
                partial = torch.zeros(
                    row_stop - row_start, dtype=self.dtype, device=self.device
                )
                for column_start, column_stop in path_spans:
                    structural = tp_tensor[
                        item_tp[row_start:row_stop].unsqueeze(-1),
                        pool_tp[column_start:column_stop],
                    ]
                    if structural.numel() > self.peak_scratch_entries:
                        self.peak_scratch_entries = structural.numel()
                    # integer-valued masked sums: exact in any reduction
                    # order and under any tiling
                    partial = partial + torch.where(
                        structural >= gamma,
                        counts[column_start:column_stop].unsqueeze(0),
                        zero,
                    ).sum(dim=1)
                rank_s[row_start:row_stop] = partial / len(distinct_paths)
        else:
            rank_s = torch.zeros(n, dtype=self.dtype, device=self.device)

        # --- content ranking (per-class cosine block) ----------------------- #
        if f != 1.0:
            class_ids = np.array(
                [self._content_id(entry) for entry in items], dtype=np.intp
            )
            present = np.unique(class_ids)
            block = self._cosine_block(present)
            remap = np.zeros(len(self._content_exemplars), dtype=np.intp)
            remap[present] = np.arange(len(present), dtype=np.intp)
            local = self._index_tensor(remap[class_ids])
            cosine_t = torch.as_tensor(block, dtype=self.dtype, device=self.device)
            rank_c = torch.zeros(n, dtype=self.dtype, device=self.device)
            for row_start, row_stop in item_spans:
                partial = torch.zeros(
                    row_stop - row_start, dtype=self.dtype, device=self.device
                )
                for column_start, column_stop in item_spans:
                    cosines = cosine_t[
                        local[row_start:row_stop].unsqueeze(-1),
                        local[column_start:column_stop],
                    ]
                    if cosines.numel() > self.peak_scratch_entries:
                        self.peak_scratch_entries = cosines.numel()
                    # accumulate column by column so every rank is the same
                    # sequential left-to-right sum as the reference loop
                    # (tiles walk the columns in order)
                    for j in range(cosines.shape[1]):
                        partial = partial + cosines[:, j]
                rank_c[row_start:row_stop] = partial
            empty = torch.as_tensor(
                np.array([not entry.vector for entry in items], dtype=bool)
            ).to(self.device)
            rank_c = rank_c.masked_fill(empty, 0.0)
        else:
            # the reference blend multiplies rank_C by (1 - f) == 0.0, so any
            # finite value yields the same float; skip the cosine work
            rank_c = torch.zeros(n, dtype=self.dtype, device=self.device)

        ranks = f * rank_s + (1.0 - f) * rank_c
        return [float(rank) for rank in ranks.cpu().tolist()]
