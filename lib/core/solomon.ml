open Mspar_graph

let delta_alpha ~alpha ~eps =
  if eps <= 0.0 || eps >= 1.0 then invalid_arg "Solomon: eps must lie in (0,1)";
  if alpha < 0 then invalid_arg "Solomon: negative alpha";
  Int.max 1 (int_of_float (ceil (4.0 *. float_of_int alpha /. eps)))

let sparsify g ~delta_alpha =
  if delta_alpha < 1 then invalid_arg "Solomon.sparsify: delta_alpha >= 1";
  (* Neighbor lists are sorted, so "the first delta_alpha entries of v's
     adjacency array" is a canonical arbitrary choice.  An edge (u, v)
     survives iff v is among u's first delta_alpha neighbors and vice
     versa; sortedness makes that a rank test. *)
  let marks = Hashtbl.create (4 * Graph.n g * Int.min delta_alpha 16) in
  let pairs = ref [] in
  for v = 0 to Graph.n g - 1 do
    let d = Int.min delta_alpha (Graph.degree g v) in
    for i = 0 to d - 1 do
      let u = Graph.neighbor g v i in
      let key = if v < u then (v, u) else (u, v) in
      if Hashtbl.mem marks key then pairs := key :: !pairs
      else Hashtbl.replace marks key ()
    done
  done;
  Graph.of_edges ~n:(Graph.n g) !pairs
