open Mspar_prelude

(* The per-vertex marking decision of §3.1, factored out of the batch
   builders so the LCA oracle replays bit-for-bit what they emit.  The
   kernel is pure in the replayable sense: which adjacency positions a
   vertex marks depends only on (rule, delta, its degree, seed, v),
   never on any other vertex. *)

type rule = Mark_all_at_most_delta | Mark_all_at_most_two_delta

let threshold rule delta =
  match rule with
  | Mark_all_at_most_delta -> delta
  | Mark_all_at_most_two_delta -> 2 * delta

let mark_count rule ~delta ~degree =
  if degree <= threshold rule delta then degree else delta

let seed_of rng = Int64.to_int (Rng.bits64 rng)

let sampled_indices_into sampler ~seed v ~delta ~degree ~out =
  Sampling.sample_indices_into sampler (Rng.derive ~seed v) ~n:degree ~k:delta
    ~out
