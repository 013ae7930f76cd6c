open Mspar_prelude

type t = {
  drop : float;
  duplicate : float;
  reorder : int;
  crashed : int list;
  straggler : (int, int) Hashtbl.t;
  rng : Rng.t;
}

type report = { dropped : int; duplicated : int; delayed : int }

let add_report a b =
  {
    dropped = a.dropped + b.dropped;
    duplicated = a.duplicated + b.duplicated;
    delayed = a.delayed + b.delayed;
  }

let plan ?(drop = 0.0) ?(duplicate = 0.0) ?(reorder = 1) ?(crashed = [])
    ?(straggler = []) rng =
  if drop < 0.0 || drop >= 1.0 then
    invalid_arg "Faults.plan: drop must be in [0, 1)";
  if duplicate < 0.0 || duplicate >= 1.0 then
    invalid_arg "Faults.plan: duplicate must be in [0, 1)";
  if reorder < 1 then invalid_arg "Faults.plan: reorder window >= 1";
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, d) ->
      if d < 1 then invalid_arg "Faults.plan: straggler delay >= 1";
      Hashtbl.replace tbl v d)
    straggler;
  { drop; duplicate; reorder; crashed; straggler = tbl; rng = Rng.split rng }

let drop_p t = t.drop
let duplicate_p t = t.duplicate
let reorder_window t = t.reorder
let crashed_list t = t.crashed
let delay_of t v = match Hashtbl.find_opt t.straggler v with Some d -> d | None -> 0
let flip t p = p > 0.0 && Rng.bernoulli t.rng p
let shuffle t arr = Rng.shuffle_in_place t.rng arr
