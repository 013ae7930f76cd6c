(* The pipeline workload's input: a disjoint union of Obs 2.14 gadgets,
   each two cliques K_half (half odd) joined by one bridge.  β = 2 (a
   vertex's neighbourhood is one clique, plus at most one bridge
   endpoint), and the maximum matching has a closed form: a gadget has
   2·half vertices and a perfect matching that must use its bridge, so
   MCM = gadgets · half.  The seed picks the vertex labelling and each
   gadget's bridge endpoints; every count above is seed-independent. *)

open Mspar_prelude
open Mspar_graph

type spec = { gadgets : int; half : int }

let check s =
  if s.gadgets < 1 then invalid_arg "Gadgets: need at least one gadget";
  if s.half < 3 || s.half mod 2 = 0 then invalid_arg "Gadgets: need odd half >= 3"

let n s = 2 * s.gadgets * s.half
let m s = s.gadgets * ((s.half * (s.half - 1)) + 1)
let mcm s = s.gadgets * s.half

let build ~seed s =
  check s;
  let rng = Rng.create seed in
  let label = Rng.perm rng (n s) in
  let bridges =
    Array.init s.gadgets (fun _ ->
        let a = Rng.int rng s.half in
        let b = Rng.int rng s.half in
        (a, b))
  in
  Graph.of_edges_iter ~n:(n s) (fun push ->
      for g = 0 to s.gadgets - 1 do
        let base = 2 * s.half * g in
        for side = 0 to 1 do
          let lo = base + (side * s.half) in
          for u = 0 to s.half - 1 do
            for v = u + 1 to s.half - 1 do
              push label.(lo + u) label.(lo + v)
            done
          done
        done;
        let a, b = bridges.(g) in
        push label.(base + a) label.(base + s.half + b)
      done)
