
let degeneracy_order g =
  let nv = Graph.n g in
  let deg = Array.init nv (Graph.degree g) in
  let maxd = Array.fold_left Int.max 0 deg in
  (* bucket queue over current degrees *)
  let buckets = Array.make (maxd + 1) [] in
  Array.iteri (fun v d -> buckets.(d) <- v :: buckets.(d)) deg;
  let removed = Array.make nv false in
  let order = Array.make nv 0 in
  let k = ref 0 in
  let cursor = ref 0 in
  for step = 0 to nv - 1 do
    (* find the non-empty bucket of minimum degree; [cursor] only moves up
       by 1 per removal plus down when degrees drop, so total work is
       O(n + m) *)
    while !cursor <= maxd && buckets.(!cursor) = [] do
      incr cursor
    done;
    (* pop a live vertex *)
    let rec pop () =
      match buckets.(!cursor) with
      | [] ->
          incr cursor;
          while !cursor <= maxd && buckets.(!cursor) = [] do
            incr cursor
          done;
          pop ()
      | v :: rest ->
          buckets.(!cursor) <- rest;
          if removed.(v) || deg.(v) <> !cursor then pop () else v
    in
    let v = pop () in
    removed.(v) <- true;
    order.(step) <- v;
    if deg.(v) > !k then k := deg.(v);
    Graph.iter_neighbors g v (fun u ->
        if not removed.(u) then begin
          deg.(u) <- deg.(u) - 1;
          buckets.(deg.(u)) <- u :: buckets.(deg.(u));
          if deg.(u) < !cursor then cursor := deg.(u)
        end);
    ignore (Graph.probes g)
  done;
  (!k, order)

let degeneracy g = fst (degeneracy_order g)

let density_lower_bound g =
  let non_isolated = ref 0 in
  for v = 0 to Graph.n g - 1 do
    if Graph.degree g v > 0 then incr non_isolated
  done;
  if !non_isolated < 2 then 0
  else
    let m = Graph.m g in
    (m + !non_isolated - 2) / (!non_isolated - 1)

let orient_by_degeneracy g =
  let nv = Graph.n g in
  let _, order = degeneracy_order g in
  let rank = Array.make nv 0 in
  Array.iteri (fun i v -> rank.(v) <- i) order;
  let out = Array.make nv [] in
  Graph.iter_edges g (fun u v ->
      if rank.(u) < rank.(v) then out.(u) <- (u, v) :: out.(u)
      else out.(v) <- (v, u) :: out.(v));
  Array.map Array.of_list out
