open Mspar_graph

type t = { mates : int array; mutable size : int }

let create n =
  if n < 0 then invalid_arg "Matching.create: negative n";
  { mates = Array.make n (-1); size = 0 }

let n t = Array.length t.mates
let size t = t.size
let mate t v = t.mates.(v)
let is_matched t v = t.mates.(v) >= 0

let add t u v =
  if u = v then invalid_arg "Matching.add: self-loop";
  if t.mates.(u) >= 0 || t.mates.(v) >= 0 then
    invalid_arg "Matching.add: endpoint already matched";
  t.mates.(u) <- v;
  t.mates.(v) <- u;
  t.size <- t.size + 1

let remove_edge t u v =
  if t.mates.(u) <> v || t.mates.(v) <> u then
    invalid_arg "Matching.remove_edge: not mates";
  t.mates.(u) <- -1;
  t.mates.(v) <- -1;
  t.size <- t.size - 1

let remove_vertex t v =
  let u = t.mates.(v) in
  if u >= 0 then remove_edge t v u

let copy t = { mates = Array.copy t.mates; size = t.size }

let clear t =
  Array.fill t.mates 0 (Array.length t.mates) (-1);
  t.size <- 0

let iter_edges t f =
  Array.iteri (fun v u -> if u > v then f v u) t.mates

let edges t =
  let acc = ref [] in
  iter_edges t (fun u v -> acc := (u, v) :: !acc);
  List.sort compare !acc

let of_edges ~n:nv pairs =
  let t = create nv in
  List.iter (fun (u, v) -> add t u v) pairs;
  t

let is_valid g t =
  Array.length t.mates = Graph.n g
  &&
  let ok = ref true in
  Array.iteri
    (fun v u ->
      if u >= 0 then
        if t.mates.(u) <> v || not (Graph.has_edge g u v) then ok := false)
    t.mates;
  !ok

let is_maximal g t =
  let ok = ref true in
  Graph.iter_edges g (fun u v ->
      if t.mates.(u) < 0 && t.mates.(v) < 0 then ok := false);
  !ok

let is_perfect t = 2 * t.size = Array.length t.mates

let restrict_to g t =
  let dropped = ref 0 in
  Array.iteri
    (fun v u ->
      if u > v && not (Graph.has_edge g v u) then begin
        remove_edge t v u;
        incr dropped
      end)
    t.mates;
  !dropped

let augment_along t path =
  let arr = Array.of_list path in
  let len = Array.length arr in
  if len < 2 || len mod 2 <> 0 then
    invalid_arg "Matching.augment_along: need an odd number of edges";
  if is_matched t arr.(0) || is_matched t arr.(len - 1) then
    invalid_arg "Matching.augment_along: endpoints must be free";
  for i = 0 to len - 2 do
    let u = arr.(i) and v = arr.(i + 1) in
    if i mod 2 = 1 && t.mates.(u) <> v then
      invalid_arg "Matching.augment_along: path does not alternate"
  done;
  (* unmatch the matched (odd) pairs, then match the even pairs *)
  let i = ref 1 in
  while !i + 1 < len do
    remove_edge t arr.(!i) arr.(!i + 1);
    i := !i + 2
  done;
  let i = ref 0 in
  while !i + 1 < len do
    add t arr.(!i) arr.(!i + 1);
    i := !i + 2
  done

let symmetric_difference_paths a b =
  if Array.length a.mates <> Array.length b.mates then
    invalid_arg "Matching.symmetric_difference_paths: size mismatch";
  let nv = Array.length a.mates in
  (* adjacency of the symmetric difference, tagged by origin *)
  let adj = Array.make nv [] in
  let add_edge tag u v =
    adj.(u) <- (v, tag) :: adj.(u);
    adj.(v) <- (u, tag) :: adj.(v)
  in
  iter_edges a (fun u v -> if b.mates.(u) <> v then add_edge `A u v);
  iter_edges b (fun u v -> if a.mates.(u) <> v then add_edge `B u v);
  let seen = Array.make nv false in
  let augmenting = ref 0 in
  for s = 0 to nv - 1 do
    if (not seen.(s)) && adj.(s) <> [] then begin
      (* walk the component (a path or even cycle, degrees are <= 2) *)
      let count_a = ref 0 and count_b = ref 0 in
      let stack = ref [ s ] in
      seen.(s) <- true;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | v :: rest ->
            stack := rest;
            List.iter
              (fun (u, tag) ->
                if not seen.(u) then begin
                  seen.(u) <- true;
                  stack := u :: !stack
                end;
                (* count each edge once via ordering *)
                if v < u then
                  match tag with
                  | `A -> incr count_a
                  | `B -> incr count_b)
              adj.(v)
      done;
      if !count_b > !count_a then incr augmenting
    end
  done;
  !augmenting

let pp ppf t =
  Format.fprintf ppf "matching(size=%d:%a)" t.size
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       (fun ppf (u, v) -> Format.fprintf ppf " %d-%d" u v))
    (edges t)
