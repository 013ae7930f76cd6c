(** Persistent, lazily-started domain pool.

    [Domain.spawn] costs tens of microseconds and a fresh minor heap per
    domain; paying it on every sparsification makes the parallel
    construction path lose to the sequential one on all but the largest
    instances.  A {!t} owns [size - 1] long-lived worker domains (the
    caller itself is worker 0) that park on a condition variable between
    jobs, so the spawn cost is amortised across every parallel call in the
    process.

    Workers are spawned lazily on the first {!parallel_for_ranges} call; a
    pool of size 1 never spawns anything and runs every chunk on the
    caller — the graceful single-domain fallback.  If the runtime's domain
    limit prevents some workers from spawning, the pool silently degrades
    to the workers it got.

    Pools are meant to be driven by one orchestrating domain at a time;
    concurrent {!parallel_for_ranges} calls on the same pool from several
    domains are not supported. *)

type t

val create : num_domains:int -> unit -> t
(** [create ~num_domains ()] makes a pool of [num_domains] workers
    (including the caller).  No domain is spawned until the first
    parallel call.
    @raise Invalid_argument if [num_domains] is outside [\[1, 128\]]. *)

val size : t -> int
(** Total worker count including the caller; fixed at creation. *)

val parallel_for_ranges :
  t -> ?chunks:int -> n:int -> (chunk:int -> lo:int -> hi:int -> unit) -> unit
(** [parallel_for_ranges t ~chunks ~n f] splits [\[0, n)] into [chunks]
    contiguous ranges (default: [size t]) and calls [f ~chunk ~lo ~hi]
    exactly once per range, distributing ranges across the pool's workers;
    ranges may be empty when [n < chunks].  Range [k] is
    [chunk_bounds ~chunks ~n k], so repeated calls with the same
    [(chunks, n)] see identical ranges — phases of a multi-pass algorithm
    can rely on stable chunk ownership.  Blocks until every worker has
    drained its share of the ranges; if a chunk raises, that worker's
    remaining chunks are abandoned and one of the raised exceptions is
    re-raised once every worker has stopped (the pool itself stays
    usable).  Chunks run concurrently and must write disjoint locations.
    @raise Invalid_argument if [chunks < 1] or [n < 0]. *)

val chunk_bounds : chunks:int -> n:int -> int -> (int * int)
(** [chunk_bounds ~chunks ~n k] is the [k]-th range [(lo, hi)] of the
    deterministic split used by {!parallel_for_ranges}: contiguous, in
    order, covering [\[0, n)], sizes differing by at most one.
    @raise Invalid_argument if [chunks < 1], [n < 0] or [k] is out of
    range. *)

val shutdown : t -> unit
(** Ask the worker domains to quit and join them.  Idempotent; the pool
    restarts lazily if used again afterwards.  Must not be called while a
    {!parallel_for_ranges} call is in flight on the pool. *)
