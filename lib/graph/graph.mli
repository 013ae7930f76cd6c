(** Static undirected graphs in the adjacency-array model.

    The representation mirrors the input model of the paper's sequential
    algorithm (§3.1): for every vertex [v] we can read [degree g v] in O(1)
    and the [i]-th neighbor of [v] in O(1), and the adjacency arrays are
    read-only.  Every neighbor read is counted in a probe counter so that
    sublinearity claims ("the algorithm reads o(m) of the input") are
    measurable rather than asserted.  The counter is atomic, so probe
    totals stay exact when multiple domains read the same graph.

    Internally the graph is a compressed sparse row (CSR) structure with
    sorted neighbor lists.  Vertices are integers [0 .. n-1]; graphs are
    simple (no self-loops, no parallel edges).

    {2 Off-heap storage}

    The CSR lanes (offsets and adjacency) are {!Mspar_prelude.Bigvec}
    Bigarrays: malloc'd — or, for graphs opened from an [.msgr] file via
    {!Graph_io.load_mmap}, mmap'd — storage that the GC never scans and
    that domains share without write barriers.  A marking pass over a
    100M-edge graph no longer drags ~1.6 GB of adjacency through every
    major collection, and the builder writes the final lanes in place
    with no post-build copy.  All observable behaviour (checksums,
    audits, equality, probe accounting) is bit-for-bit identical to the
    former heap-array representation.

    Every builder runs on the calling domain, as the paper's sequential
    algorithm does (§3.1); DESIGN.md §5 records why there is no
    shared-memory parallel builder.

    {2 Packed edges}

    Construction-heavy callers (the G_Δ sparsifier builders) carry edges as
    packed ints [u·2^shift lor v] in flat {!Mspar_prelude.Edgebuf} buffers
    and build the CSR with counting sorts — no boxed tuples and no
    polymorphic compare on the hot path.  Two endpoints must fit one
    native int, so a graph has at most 2^30 vertices on 64-bit hosts: that
    packable range is a precondition of {!t}.  {!pack_shift} is the one
    check of it; every builder calls it before allocating anything and
    raises [Invalid_argument] outside the range, and {!of_csr} (the path
    outside input takes) returns [Error] instead. *)

type t

type edge = int * int
(** Undirected edge, normalised so the first endpoint is smaller. *)

val of_edges : n:int -> edge list -> t
(** [of_edges ~n edges] builds a graph on [n] vertices.  Self-loops are
    dropped and duplicate/reversed edges are merged.  Wrapper over the
    packed pipeline.
    @raise Invalid_argument if [n] is outside the packable range
    ({!pack_shift}) or an endpoint is outside [\[0, n)]. *)

val of_edge_array : n:int -> edge array -> t
(** Same as {!of_edges} on an array. *)

val of_edges_iter : n:int -> ((int -> int -> unit) -> unit) -> t
(** [of_edges_iter ~n iter] builds a graph from a push-style edge producer:
    [iter] is called once with a [push u v] callback.  Avoids materialising
    any intermediate edge list; same cleaning semantics as {!of_edges}.
    @raise Invalid_argument if [n] is outside the packable range (checked
    before [iter] runs) or a pushed endpoint is outside [\[0, n)]. *)

val pack_shift : n:int -> int
(** [pack_shift ~n] is the shift [s] that packs edges on [n] vertices as
    [(u lsl s) lor v] in a native int: [s >= 1] and [2^s >= n].  This is
    the one check of the packable range.
    @raise Invalid_argument if [n < 0] or [n > 2^30] (on 64-bit hosts). *)

val pack : shift:int -> int -> int -> int
(** [pack ~shift u v] is [(u lsl shift) lor v].  Preconditions (unchecked):
    [shift] came from {!pack_shift} for this graph's [n] and
    [0 <= u, v < n]. *)

val unpack_u : shift:int -> int -> int
val unpack_v : shift:int -> int -> int

val of_packed : n:int -> ?len:int -> int array -> t
(** [of_packed ~n ~len codes] builds a graph from the packed marks
    [codes.(0 .. len-1)] (default [len]: the whole array).  Marks may
    contain self-loops, duplicates and reversed duplicates; they are
    normalised, counting-sorted and deduplicated.  The prefix of [codes] is
    mutated (it doubles as sort scratch).
    @raise Invalid_argument if [n] is outside the packable range or a code
    does not decode to endpoints in [\[0, n)]. *)

val of_edgebuf : n:int -> Mspar_prelude.Edgebuf.t -> t
(** {!of_packed} over an {!Mspar_prelude.Edgebuf}'s contents (which are
    mutated, like the array above). *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of (undirected) edges. *)

val degree : t -> int -> int
(** O(1); part of the model's free metadata, not counted as a probe. *)

val max_degree : t -> int
(** O(1): cached at construction time (the builders see every degree
    anyway), so per-worker scratch sizing costs nothing per call. *)

val neighbor : t -> int -> int -> int
(** [neighbor g v i] is the [i]-th neighbor of [v] (0-based, sorted order).
    Counts one probe.
    @raise Invalid_argument if [i >= degree g v]. *)

val neighbor_uncounted : t -> int -> int -> int
(** Same read as {!neighbor} but does not touch the probe counter; the
    caller must account for it via {!add_probes}.  Lets tight loops batch
    one atomic update per vertex instead of one per read.
    @raise Invalid_argument if [i >= degree g v]. *)

val iter_neighbors_uncounted : t -> int -> (int -> unit) -> unit
(** {!iter_neighbors} without the probe-counter update; pairs with
    {!add_probes} so cache-blocked traversals can charge one atomic
    update per block instead of one per vertex. *)

val append_neighbors_uncounted :
  t -> int -> base:int -> Mspar_prelude.Edgebuf.t -> unit
(** Push [base lor u] for every neighbour [u] of the vertex into [buf] —
    the closure-free twin of {!iter_neighbors_uncounted} for the marking
    loops, which would otherwise allocate a closure per vertex.  Uses
    unchecked pushes: the caller must have reserved capacity
    ({!Mspar_prelude.Edgebuf.ensure_capacity}) and remains responsible
    for probe accounting via {!add_probes}. *)

val neighbors_into_uncounted : t -> int -> out:int array -> int
(** [neighbors_into_uncounted g v ~out] copies [v]'s adjacency block
    (sorted) into [out.(0 .. d-1)] and returns [d = degree g v] — the
    read-only oracle surface the LCA query engine replays a vertex
    through.  Uncounted like its [_uncounted] siblings: the caller
    charges the reads in one {!add_probes} batch, and the MSP014 lint
    extends its dominated-by-charge proof to this accessor.
    @raise Invalid_argument if [out] is shorter than the degree. *)

val iter_vertex_blocks : t -> extent:int -> (int -> int -> unit) -> unit
(** [iter_vertex_blocks g ~extent f] partitions the vertices [\[0, n)]
    into maximal contiguous runs [f b e] whose adjacency spans at most
    [extent] CSR words — a vertex whose list alone exceeds [extent] forms
    a singleton run.  With [extent] sized to a cache level, a traversal
    that visits each run before moving on works a bounded window of the
    adjacency lane at a time (the lane is CSR-contiguous, so a run {e is}
    an address interval), which is what the cache-blocked marking loop in
    [Gdelta] keys off.  O(1) per candidate vertex via the offsets lane;
    the adjacency lane is not read.
    @raise Invalid_argument if [extent < 1]. *)

val add_probes : t -> int -> unit
(** Charge [k] probes explicitly (pairs with {!neighbor_uncounted}). *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors g v f] applies [f] to each neighbor of [v]; counts
    [degree g v] probes. *)

val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

val has_edge : t -> int -> int -> bool
(** Binary search over the smaller adjacency list; counts O(log deg)
    probes. *)

val edges : t -> edge array
(** All edges, each once, normalised and sorted; not counted as probes
    (intended for test oracles and output, not for sublinear algorithms). *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate all edges (u < v) without materialising; not counted. *)

val probes : t -> int
(** Number of adjacency-array reads since the last {!reset_probes}.  Exact
    even when several domains probe concurrently (atomic counter). *)

val reset_probes : t -> unit

val induced : t -> int array -> t * int array
(** [induced g vs] is the subgraph induced by the distinct vertices [vs],
    relabelled [0 .. |vs|-1], together with the map from new to old labels. *)

val union : t -> t -> t
(** Edge union of two graphs on the same vertex set.
    @raise Invalid_argument if vertex counts differ. *)

val is_subgraph : sub:t -> super:t -> bool
(** True iff every edge of [sub] is an edge of [super] (same vertex set). *)

val complement_degree_sum : t -> int
(** [2m] — handy sanity value: sum of all degrees. *)

val audit : t -> string list
(** Verify CSR canonicality: offsets start at 0, are monotone, and end at
    [|adj|] (the degree sum [2m]); every block is strictly sorted with
    in-range neighbors and no self-loops; adjacency is symmetric; the
    cached [max_degree] matches a recomputation.  Returns one
    human-readable message per violated invariant ([[]] = healthy).
    Reads are {e not} counted as probes — this is integrity checking, not
    an algorithmic access.  O(n + m log Δ). *)

val checksum : t -> int64
(** FNV-1a digest of the structural content ([n], offsets, adjacency).
    Equal edge sets yield equal checksums (CSR form is canonical); probe
    counters are excluded.  Used by the dynamic audit layer to detect
    silent corruption cheaply between full {!audit} passes. *)

(** {2 Raw CSR lanes}

    The escape hatch for the binary container ({!Graph_io}) and future
    out-of-core backends: a graph can be (re)constituted from raw off-heap
    lanes without copying them, and its lanes can be observed for
    zero-copy serialization. *)

val of_csr :
  n:int ->
  offsets:Mspar_prelude.Bigvec.t ->
  adj:Mspar_prelude.Bigvec.t ->
  maxdeg:int ->
  (t, string) result
(** [of_csr ~n ~offsets ~adj ~maxdeg] wraps raw CSR lanes (shared, not
    copied) as a graph.  Validates in O(n) {e without reading the
    adjacency lane}: [offsets] must have [n+1] entries, start at 0, be
    monotone and end at [|adj|], and [maxdeg] must match the offsets'
    largest gap — after which every internal adjacency index is provably
    inside the lane, so even lanes mapped from an untrusted file can
    never be read past their extent.  Adjacency {e values} are not
    inspected (that would defeat O(1) mmap loads); damaged values surface
    through {!audit}/{!checksum}, not through wild reads.  Returns
    [Error reason] on malformed lanes or on an [n] outside the packable
    range ({!pack_shift}), which is checked first. *)

val csr_lanes : t -> Mspar_prelude.Bigvec.t * Mspar_prelude.Bigvec.t
(** [(offsets, adj)] — the live lanes, {e shared, read-only by
    convention}: mutating them breaks every invariant {!audit} checks.
    Intended for serializers. *)

val materialize : t -> t
(** Deep-copy the lanes into fresh malloc'd storage with a zero probe
    counter.  Detaches an mmap-backed graph from its file mapping, so the
    copy stays valid after the file changes and writes to the copy's
    lanes (via future mutation layers) cannot fault on a read-only
    mapping. *)

val pp : Format.formatter -> t -> unit
(** Short description: ["graph(n=…, m=…)"]. *)

val equal : t -> t -> bool
(** Structural equality (same vertex count and edge set). *)
