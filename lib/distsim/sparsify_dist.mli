(** One-round distributed sparsifier constructions (paper §3.2), plus the
    self-healing retry variant for faulty networks.

    G_Δ: each processor locally marks Δ random incident edges and sends a
    1-bit message along each — a single round, message count equal to the
    number of marks (≈ nΔ ≪ m).  The Solomon bounded-degree sparsifier is
    likewise one round: mark the first Δ_α ports, keep edges marked by both
    endpoints (each endpoint observes the intersection locally).

    On an unreliable network the 1-bit marking round degrades gracefully
    (lost marks only shrink the sparsifier), and because the construction
    is purely local it self-heals cheaply: {!gdelta_reliable} runs
    mark → ack → re-mark attempts until every surviving mark is
    acknowledged or the retry budget is exhausted.  Under drop rate [p]
    a mark round-trip fails with probability ≤ 2p, so after [r] retries
    the expected number of marks still missing is ≤ nΔ·(2p)^(r+1) — the
    sparsifier converges to the fault-free G_Δ whp while the metered
    round/message overhead stays bounded by the budget. *)

open Mspar_prelude
open Mspar_graph

type stats = {
  rounds : int;
  messages : int;
  bits : int;
  faults : Faults.report;  (** all-zero on a fault-free network *)
}

type reliable_stats = {
  base : stats;
  attempts : int;  (** mark rounds executed, in [1, retries+1] *)
  unacked : int;
      (** marks of live senders never acknowledged within the budget (marks
          aimed at crashed receivers are permanently unacked) *)
}

val gdelta : ?faults:Faults.t -> Rng.t -> Graph.t -> delta:int -> Graph.t * stats
(** Distributed G_Δ over a fresh 1-bit network on [g].  Processor [v]
    marks through [Mspar_core.Mark_kernel] from [(seed, v)], with [seed]
    one {!Mspar_core.Mark_kernel.seed_of} draw from the supplied
    generator, so the processors are genuinely independent (the
    independence that the proof of Theorem 2.1 relies on) and the
    fault-free sparsifier is {!Mspar_core.Gdelta.sparsify}'s for the same
    generator state.  Under a fault plan, crashed processors contribute no
    marks and lost marks simply drop the corresponding edges.
    @raise Invalid_argument if [delta < 1]. *)

val gdelta_reliable :
  ?faults:Faults.t ->
  Rng.t ->
  Graph.t ->
  delta:int ->
  retries:int ->
  Graph.t * reliable_stats
(** Self-healing G_Δ: each attempt is a mark round followed by an ack round
    (the synchronous round boundary is the timeout); unacknowledged marks
    are re-sent on the next attempt, up to [retries] extra attempts.  With
    the same generator and no faults, the result equals {!gdelta}'s, and
    so {!Mspar_core.Gdelta.sparsify}'s, in two rounds.  Marks are
    idempotent, so duplicated or re-sent marks are harmless.
    @raise Invalid_argument if [delta < 1] or [retries < 0]. *)

val solomon : ?faults:Faults.t -> Graph.t -> delta_alpha:int -> Graph.t * stats
(** Distributed Solomon'18 marking round.  Crash-tolerant: a crashed vertex
    contributes no marks, so its incident edges are excluded and the
    survivors' sparsifier keeps the degree bound.
    @raise Invalid_argument if [delta_alpha < 1]. *)

val composed :
  ?faults:Faults.t ->
  Rng.t -> Graph.t -> beta:int -> eps:float -> ?multiplier:float -> unit ->
  Graph.t * stats
(** Two rounds: G_Δ then Solomon on top, with parameters as in
    {!Mspar_core.Compose}. Returns the bounded-degree sparsifier and the
    combined message accounting. *)

val composed_reliable :
  ?faults:Faults.t ->
  Rng.t ->
  Graph.t ->
  beta:int ->
  eps:float ->
  retries:int ->
  ?multiplier:float ->
  unit ->
  Graph.t * reliable_stats
(** {!composed} with the self-healing G_Δ stage: retried marking followed by
    the (one-round, crash-tolerant) Solomon stage. *)
