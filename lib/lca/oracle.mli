(** Local-access oracle: point queries against the G_Δ sparsifier and
    its random-greedy maximal matching, in O(Δ) probes per sparsifier
    query, without materializing either object.

    The batch builder's per-vertex coin flips are a pure function of
    [(seed, v)] ({!Mspar_prelude.Rng.derive} via
    {!Mspar_core.Mark_kernel}), so one vertex's marks can be
    replayed on demand against probe-metered adjacency access
    ({!Adj}).  Answers are bit-for-bit those of the materialized
    [Gdelta.marked_codes_seeded] / greedy matching on the same
    [(seed, graph, delta, rule)] — QCheck-enforced in [test_lca].

    Matching queries simulate random-greedy maximal matching locally:
    edges carry deterministic 62-bit ranks ({!edge_rank}) and an edge is
    matched iff no adjacent G_Δ edge of strictly lower [(rank, a, b)]
    is.  Each level ranks its incident edges (free: no probes), then
    visits the lower-ranked ones in ascending [(rank, a, b)] order,
    testing G_Δ membership and recursing lazily, and stops at the first
    matched one.  The recursion only descends in rank, so it
    terminates; its worst-case probe cost is polynomial in the degrees
    along the rank chain, and the bounded memo ({!Cache}) is what makes
    repeated queries cheap.

    Replay caching and invalidation: per-vertex mark arrays, per-edge
    G_Δ answers and matched bits live in bounded LRU caches whose
    entries carry the logical clock they were computed at.
    {!invalidate_edge} is O(1): it bumps the clock and stamps [u] and
    [v] as touched.  A mark entry is stale once its vertex is touched,
    and an edge answer once either endpoint is — exact, since marks of
    [x] read N(x) only.  Matching membership cascades along rank chains
    arbitrarily far, so every update makes all matched bits stale.
    Stale entries are dropped when next looked up.  The serve daemon
    invalidates on every applied update — its read-your-writes
    contract.

    Every query rejects a vertex id outside [\[0, n)] with
    [Invalid_argument] before touching a memo: such an id would alias
    another pair's packed memo key. *)

type t

type stats = {
  mark_cache : Cache.stats;
  edge_cache : Cache.stats;
  mm_cache : Cache.stats;
  probes : int;  (** underlying adjacency probe counter *)
}

val create :
  ?rule:Mspar_core.Mark_kernel.rule ->
  ?mark_capacity:int ->
  ?edge_capacity:int ->
  ?mm_capacity:int ->
  Adj.t ->
  seed:int ->
  delta:int ->
  t
(** [create adj ~seed ~delta] builds an oracle replaying the seeded
    batch builder ([Gdelta.sparsify_seeded], default rule
    [Mark_all_at_most_two_delta]) over [adj].  [mark_capacity] /
    [edge_capacity] / [mm_capacity] bound the three LRU memos
    (defaults 4096 / 65536 / 65536 entries).

    @raise Invalid_argument if [delta < 1], a cache capacity is [< 1],
    or the vertex count exceeds the packable range
    ({!Mspar_graph.Graph.pack_shift}). *)

val delta : t -> int
val seed : t -> int
val rule : t -> Mspar_core.Mark_kernel.rule

val in_gdelta : t -> u:int -> v:int -> bool
(** Is [(u,v)] an edge of the sparsifier G_Δ — i.e. a graph edge marked
    by at least one endpoint's replayed coins?  Cold cost: at most
    [2*keep <= 4*delta] probes for the two endpoint replays plus the
    O(log max_degree) binary search inside [Adj.has_edge]; cached
    endpoints answer from the mark memo, and a repeated query hits the
    edge-level memo at zero probes until an update touches [u] or [v].
    (Dynamic adjacency pays degree instead of [delta] at a cold
    high-degree endpoint — see {!Adj}.)

    @raise Invalid_argument naming the vertex and [n] if [u] or [v] is
    out of range. *)

val marked_neighbors : t -> int -> int array
(** The neighbors [v] marks under its replayed coins, sorted ascending.
    A fresh array; mutating it does not corrupt the cache.

    @raise Invalid_argument if [v] is out of range. *)

val in_matching : t -> u:int -> v:int -> bool
(** Is [(u,v)] in the locally-simulated random-greedy maximal matching
    of G_Δ?

    @raise Invalid_argument if [u] or [v] is out of range. *)

val is_matched : t -> int -> bool
(** Is some edge incident to [v] in the locally-simulated random-greedy
    maximal matching of G_Δ?  Reads the neighborhood of [v] and visits
    its incident edges in rank order until one is matched, so costs
    O(degree) probes cold plus the marks and recursive matching
    simulation of the edges it visits.

    @raise Invalid_argument if [v] is out of range. *)

val edge_rank : seed:int -> int -> int -> int
(** Deterministic non-negative 62-bit rank of an (unordered) edge — a
    splitmix-style finalizer over [(seed, min u v, max u v)].  Exposed
    so tests and benches can materialize the same greedy order the
    oracle simulates. *)

val invalidate_edge : t -> int -> int -> unit
(** [invalidate_edge t u v]: the graph gained or lost edge [(u,v)] —
    O(1): the mark and edge entries at [u] or [v] and every matched bit
    become stale.  Required before the next query whenever the
    underlying dynamic adjacency changed; stale entries otherwise serve
    pre-update answers.

    @raise Invalid_argument if [u] or [v] is out of range. *)

val invalidate_all : t -> unit
(** Make every entry of all three memos stale, in O(1) (snapshot
    reload, recovery). *)

val probes : t -> int
(** Probe counter of the underlying adjacency (shared with any other
    reader of the same graph). *)

val reset_probes : t -> unit
val stats : t -> stats
