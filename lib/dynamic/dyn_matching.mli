(** Fully dynamic (1+ε)-approximate matching (Theorem 3.5).

    The Gupta–Peng stability-window scheme on top of the static sparsifier
    pipeline: a (1+ε/4)-approximate matching M is computed by a static call
    that reads only O(n·Δ) of the graph; M is then reused (minus edges the
    adversary deletes) for the next ⌊ε/4·|M|⌋ updates — Lemma 3.4 keeps the
    approximation within (1+ε) across the window.  The static work is spread
    over the window, so the per-update cost is
    O(n·Δ / (ε·|M|)) = O(β/ε³·log(1/ε)) by Lemma 2.2.

    The scheme is safe against an {e adaptive} adversary: the matching the
    adversary observes during a window was fixed at the window start, and
    each rebuild uses fresh randomness that the adversary has not yet seen
    when it commits to the updates inside the window: one window seed
    drawn from the matcher's private generator, from which every
    non-isolated vertex marks through [Mspar_core.Mark_kernel] exactly as
    the static G_Δ builders do.

    The implementation performs each rebuild at the window boundary and
    reports the per-update cost both ways: [amortized] (total work /
    updates) and [spread] (each rebuild's work divided by its window length,
    maximised over windows — the worst-case figure the time-slicing
    scheduler of §3.3 would achieve). *)

open Mspar_prelude
open Mspar_matching

type t

type stats = {
  updates : int;
  rebuilds : int;
  total_work : int;  (** probe + marking + matcher work units *)
  max_spread_work : int;
      (** max over windows of (rebuild work / window length) — the simulated
          worst-case per-update cost *)
  total_ns : int64;
}

val create :
  ?multiplier:float -> Rng.t -> n:int -> beta:int -> eps:float -> t
(** Empty dynamic graph on [n] vertices with maintenance parameters.
    @raise Invalid_argument if [eps] is outside (0, 1). *)

val insert : t -> int -> int -> bool
(** Apply an edge insertion (returns [false] if already present). *)

val delete : t -> int -> int -> bool
(** Apply an edge deletion (returns [false] if absent). *)

val matching : t -> Matching.t
(** The currently maintained matching — valid for the current graph at all
    times. *)

val size : t -> int
val graph : t -> Dyn_graph.t
val stats : t -> stats

val force_rebuild : t -> unit
(** Trigger the static recomputation immediately (used by tests). *)

val invariant_failures : t -> string list
(** Audit the maintained matching: the mate array is an involution with
    in-range partners, every matched pair is a current graph edge, and
    the size counter matches.  One message per violation; [[]] = healthy.
    O(n). *)

val inject_corruption : t -> unit
(** Test hook: deterministically damage the matching (unpair one side
    of a matched pair, or on an empty matching bump the size counter) so
    that {!invariant_failures} is non-empty and the audit →
    {!force_rebuild} repair can be exercised. *)

val encode : t -> Buffer.t -> unit
(** Serialise the full state — dynamic graph (exact adjacency order), RNG
    position, parameters, mate array, stability window, work counters —
    for a snapshot blob.  A decoded copy replays bit-for-bit: a rebuild is
    a pure function of the graph and the window seed it draws from the
    RNG. *)

val decode : Mspar_prelude.Codec.reader -> t
(** Inverse of {!encode}; validates with {!invariant_failures} before
    returning.
    @raise Failure on validation failure.
    @raise Mspar_prelude.Codec.Truncated on short input. *)
