(** Growable flat buffer of unboxed ints — the carrier for packed edges.

    {!Vec} is polymorphic, so an [(int * int) Vec.t] boxes every edge and
    drags the GC through the sparsifier hot path.  [Edgebuf] is the
    monomorphic alternative: one [int array], doubled on demand, never
    scanned by the minor collector.  Producers push packed edge codes
    ([Graph.pack]-style [u·2^s lor v]) and hand the raw storage to the CSR
    builder without copying. *)

type t

val create : ?initial_capacity:int -> unit -> t
(** Fresh buffer; capacity defaults to 16 and grows by doubling. *)

val length : t -> int

val push : t -> int -> unit
(** Amortised O(1) append. *)

val push_unchecked : t -> int -> unit
(** {!push} without the growth check.  Precondition ({e unchecked}):
    [length t] is below the size last reserved with {!ensure_capacity}.
    Callers reserve room once per block of pushes, then append with no
    branch per element —
    the marking hot path's contract.  Violating the precondition writes
    out of bounds. *)

val ensure_capacity : t -> int -> unit
(** Pre-size the storage so the next [ensure_capacity n] pushes up to [n]
    total elements without reallocating. *)

val data : t -> int array
(** The underlying storage, {e shared, not copied}; only the first
    [length t] entries are meaningful.  Invalidated by the next growing
    {!push}/{!ensure_capacity}. *)

val fold_left : ('a -> int -> 'a) -> 'a -> t -> 'a
