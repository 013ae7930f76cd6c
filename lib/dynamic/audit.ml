open Mspar_graph

let prefix p = List.map (fun s -> p ^ ": " ^ s)

let graph dg =
  let dyn = prefix "dyn-graph" (Dyn_graph.invariant_failures dg) in
  (* Materialise and audit the CSR form too: the static checker covers
     canonicality (sorted blocks, symmetry, degree-sum = 2m, max-degree
     cache) and cross-checks the dynamic edge count. *)
  let snap = Dyn_graph.snapshot dg in
  let csr = prefix "csr" (Graph.audit snap) in
  let cross =
    if Graph.m snap <> Dyn_graph.m dg then
      [
        Printf.sprintf "cross: snapshot has %d edges, dynamic graph claims %d"
          (Graph.m snap) (Dyn_graph.m dg);
      ]
    else []
  in
  dyn @ csr @ cross

let matching dm =
  let g = graph (Dyn_matching.graph dm) in
  let m = prefix "matching" (Dyn_matching.invariant_failures dm) in
  g @ m
