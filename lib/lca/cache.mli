(** Bounded LRU memoization for the replay oracle, with stamp-checked
    entries.

    Int keys (vertices, or packed edge codes).  Each entry holds one int
    word packing the logical-clock stamp it was computed at with one
    answer bit, so a memo of booleans costs no boxes; a larger payload
    lives in a caller-side array indexed by the slot {!find} and {!put}
    return.  {!find} takes the caller's validity floor: an entry stamped
    before it is stale, dropped on the spot, and counted as a miss and
    an invalidation.  Invalidating any set of entries is therefore a
    stamp or floor bump in the caller, never a sweep over the cache.

    The index is linear probing over a power-of-two table of at least
    2 × capacity, deleting by backward shift (no tombstones); the
    recency list lives in two int arrays over fixed slots.  {!find} and
    {!put} allocate nothing and are [[@@hot]] (MSP013), so they can sit
    on the query hot path.  Every hit, miss, insertion, eviction and
    invalidation is counted: the oracle's amortization claim
    ([bench_csv/lca-query.csv]) is measured off these counters, not
    asserted. *)

type t

type stats = {
  hits : int;
  misses : int;  (** includes stale entries found and dropped *)
  insertions : int;
  evictions : int;  (** capacity displacements (LRU victim dropped) *)
  invalidations : int;
      (** stale entries dropped by {!find} — the dynamic-update
          invalidation traffic, paid lazily *)
}

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int

val length : t -> int
(** Entries currently held, stale ones not yet dropped included. *)

val find : t -> since:int -> int -> int
(** [find t ~since k] is the slot holding [k], or [-1] on a miss.  An
    entry stamped before [since] is a miss: it is dropped and counted
    in [invalidations].  A hit refreshes the entry's recency. *)

val bit : t -> int -> bool
(** [bit t s] is the answer bit stored at slot [s], a slot just returned
    by {!find} or {!put}. *)

val put : t -> stamp:int -> int -> bool -> int
(** [put t ~stamp k b] stores answer bit [b] for [k], stamped [stamp],
    and returns its slot.  A held key is overwritten in place; otherwise
    the least recently used entry is evicted when the cache is full. *)

val stats : t -> stats
