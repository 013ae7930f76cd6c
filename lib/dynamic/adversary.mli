(** Update-sequence generators, including an adaptive adversary.

    Theorem 3.5 claims the (1+ε) guarantee holds against an adversary that
    chooses each update {e after} seeing the algorithm's current output.
    {!Adaptive_target_matching} implements the natural attack: it always
    deletes an edge of the currently output matching when one exists (and
    otherwise inserts), which is exactly the adversary that breaks naive
    randomized sparsifier maintenance. *)

open Mspar_prelude

type op = Insert of int * int | Delete of int * int

type strategy =
  | Random_churn of float
      (** delete an existing edge with the given probability, otherwise
          insert a uniformly random missing pair *)
  | Adaptive_target_matching
      (** always delete a currently matched edge if any exists *)

val next_op :
  strategy ->
  Rng.t ->
  Dyn_graph.t ->
  current_mate:(int -> int) ->
  op option
(** Produce the next update for the given graph state, or [None] when the
    strategy has no applicable move (e.g. deleting from an empty graph and
    the vertex set is too small to insert). *)
