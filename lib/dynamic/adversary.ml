open Mspar_prelude

type op = Insert of int * int | Delete of int * int

type strategy = Random_churn of float | Adaptive_target_matching

let random_missing_pair rng dg =
  let n = Dyn_graph.n dg in
  if n < 2 then None
  else begin
    (* rejection sampling; dense graphs may need several tries *)
    let rec go tries =
      if tries = 0 then None
      else begin
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v && not (Dyn_graph.has_edge dg u v) then
          Some (min u v, max u v)
        else go (tries - 1)
      end
    in
    go 64
  end

let random_existing_edge rng dg =
  (* sample a vertex proportionally-ish to degree, then a random incident
     edge; exact uniformity over edges is unnecessary for churn *)
  let n = Dyn_graph.n dg in
  if Dyn_graph.m dg = 0 then None
  else begin
    let rec go tries =
      if tries = 0 then None
      else begin
        let u = Rng.int rng n in
        match Dyn_graph.random_neighbor dg rng u with
        | Some v -> Some (min u v, max u v)
        | None -> go (tries - 1)
      end
    in
    go 256
  end

let matched_edges dg current_mate =
  let acc = ref [] in
  for v = 0 to Dyn_graph.n dg - 1 do
    let u = current_mate v in
    if u > v then acc := (v, u) :: !acc
  done;
  !acc

let next_op strategy rng dg ~current_mate =
  match strategy with
  | Random_churn p_delete ->
      if Dyn_graph.m dg > 0 && Rng.bernoulli rng p_delete then
        match random_existing_edge rng dg with
        | Some (u, v) -> Some (Delete (u, v))
        | None -> Option.map (fun (u, v) -> Insert (u, v)) (random_missing_pair rng dg)
      else (
        match random_missing_pair rng dg with
        | Some (u, v) -> Some (Insert (u, v))
        | None ->
            Option.map (fun (u, v) -> Delete (u, v)) (random_existing_edge rng dg))
  | Adaptive_target_matching -> (
      match matched_edges dg current_mate with
      | [] ->
          Option.map (fun (u, v) -> Insert (u, v)) (random_missing_pair rng dg)
      | edges ->
          let u, v = List.nth edges (Rng.int rng (List.length edges)) in
          Some (Delete (u, v)))
