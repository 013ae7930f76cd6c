open Mspar_graph

(* Classic contract-and-search formulation of Edmonds' algorithm.  The
   alternating BFS tree is grown from a free root; [used] marks even-level
   (outer) vertices, [p] stores the tree parent of odd-level vertices, and
   odd cycles are contracted by redirecting [base] pointers to the cycle's
   least common ancestor.  [depth] carries an (approximate under
   contraction) bound on the tree depth of outer vertices, which implements
   the depth-limited mode. *)

type state = {
  g : Graph.t;
  nv : int;
  mates : int array;
  p : int array;
  base : int array;
  used : bool array;
  blossom : bool array;
  depth : int array;
  lca_mark : int array;
  mutable lca_time : int;
  queue : int Queue.t;
}

let make_state g mates =
  let nv = Graph.n g in
  {
    g;
    nv;
    mates;
    p = Array.make nv (-1);
    base = Array.init nv (fun i -> i);
    used = Array.make nv false;
    blossom = Array.make nv false;
    depth = Array.make nv 0;
    lca_mark = Array.make nv 0;
    lca_time = 0;
    queue = Queue.create ();
  }

(* Least common ancestor of (the bases of) a and b in the alternating tree,
   found by marking a's root path with a fresh timestamp. *)
let lca st a b =
  st.lca_time <- st.lca_time + 1;
  let stamp = st.lca_time in
  let v = ref a in
  let continue_ = ref true in
  while !continue_ do
    v := st.base.(!v);
    st.lca_mark.(!v) <- stamp;
    if st.mates.(!v) = -1 then continue_ := false else v := st.p.(st.mates.(!v))
  done;
  let v = ref b in
  let result = ref (-1) in
  while !result = -1 do
    v := st.base.(!v);
    if st.lca_mark.(!v) = stamp then result := !v
    else v := st.p.(st.mates.(!v))
  done;
  !result

(* Flag every blossom vertex on the path from v down to base b, and set the
   parent pointers needed to traverse the (now contracted) cycle later. *)
let mark_path st v b child =
  let v = ref v and child = ref child in
  while st.base.(!v) <> b do
    st.blossom.(st.base.(!v)) <- true;
    st.blossom.(st.base.(st.mates.(!v))) <- true;
    st.p.(!v) <- !child;
    child := st.mates.(!v);
    v := st.p.(st.mates.(!v))
  done

(* Grow an alternating tree from [root]; return the free vertex ending an
   augmenting path, or -1.  Only expands outer vertices of depth < max_len,
   so any returned path has a depth certificate of at most max_len edges. *)
let find_path st ~max_len root =
  Array.fill st.used 0 st.nv false;
  Array.fill st.p 0 st.nv (-1);
  Array.fill st.depth 0 st.nv 0;
  for i = 0 to st.nv - 1 do
    st.base.(i) <- i
  done;
  Queue.clear st.queue;
  st.used.(root) <- true;
  Queue.add root st.queue;
  let result = ref (-1) in
  while !result = -1 && not (Queue.is_empty st.queue) do
    let v = Queue.pop st.queue in
    if st.depth.(v) < max_len then
      Graph.iter_neighbors st.g v (fun t ->
          if !result = -1 && st.base.(v) <> st.base.(t) && st.mates.(v) <> t
          then begin
            if t = root || (st.mates.(t) <> -1 && st.p.(st.mates.(t)) <> -1)
            then begin
              (* edge between two outer vertices: contract the blossom *)
              let curbase = lca st v t in
              Array.fill st.blossom 0 st.nv false;
              mark_path st v curbase t;
              mark_path st t curbase v;
              for i = 0 to st.nv - 1 do
                if st.blossom.(st.base.(i)) then begin
                  st.base.(i) <- curbase;
                  if not st.used.(i) then begin
                    st.used.(i) <- true;
                    st.depth.(i) <- st.depth.(v) + 1;
                    Queue.add i st.queue
                  end
                end
              done
            end
            else if st.p.(t) = -1 then begin
              st.p.(t) <- v;
              if st.mates.(t) = -1 then begin
                if st.depth.(v) + 1 <= max_len then result := t
              end
              else begin
                st.used.(st.mates.(t)) <- true;
                st.depth.(st.mates.(t)) <- st.depth.(v) + 2;
                Queue.add st.mates.(t) st.queue
              end
            end
          end)
  done;
  !result

(* Flip matched/unmatched edges along the found path back to the root. *)
let apply_augmentation st endpoint =
  let v = ref endpoint in
  while !v <> -1 do
    let pv = st.p.(!v) in
    let next = st.mates.(pv) in
    st.mates.(!v) <- pv;
    st.mates.(pv) <- !v;
    v := next
  done

let matching_of_mates nv mates =
  let m = Matching.create nv in
  Array.iteri (fun v u -> if u > v then Matching.add m v u) mates;
  m

let mates_of_init g init =
  let nv = Graph.n g in
  match init with
  | Some m ->
      if Matching.n m <> nv then invalid_arg "Blossom: init size mismatch";
      Array.init nv (Matching.mate m)
  | None ->
      let m = Greedy.maximal g in
      Array.init nv (Matching.mate m)

let solve ?init g =
  let mates = mates_of_init g init in
  let st = make_state g mates in
  (* One pass suffices for the exact algorithm: if no augmenting path exists
     from a free vertex, later augmentations cannot create one. *)
  for root = 0 to st.nv - 1 do
    if st.mates.(root) = -1 then begin
      let endpoint = find_path st ~max_len:st.nv root in
      if endpoint <> -1 then apply_augmentation st endpoint
    end
  done;
  matching_of_mates st.nv st.mates

let solve_bounded ?init ~max_len g =
  if max_len < 1 then invalid_arg "Blossom.solve_bounded: max_len < 1";
  let mates = mates_of_init g init in
  let st = make_state g mates in
  (* The one-pass argument does not hold under a depth cap, so sweep until a
     full pass yields no augmentation.  Each successful augmentation grows
     the matching, so there are at most n/2 sweeps. *)
  let progress = ref true in
  while !progress do
    progress := false;
    for root = 0 to st.nv - 1 do
      if st.mates.(root) = -1 then begin
        let endpoint = find_path st ~max_len root in
        if endpoint <> -1 then begin
          apply_augmentation st endpoint;
          progress := true
        end
      end
    done
  done;
  matching_of_mates st.nv st.mates

let deficiency_formula g ~a =
  let nv = Graph.n g in
  let size_a = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a in
  (* count odd components of g - a *)
  let seen = Array.make nv false in
  let odd = ref 0 in
  for s = 0 to nv - 1 do
    if (not a.(s)) && not seen.(s) then begin
      let size = ref 0 in
      let stack = ref [ s ] in
      seen.(s) <- true;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | v :: rest ->
            stack := rest;
            incr size;
            Graph.iter_neighbors g v (fun u ->
                if (not a.(u)) && not seen.(u) then begin
                  seen.(u) <- true;
                  stack := u :: !stack
                end)
      done;
      if !size mod 2 = 1 then incr odd
    end
  done;
  !odd - size_a

(* The Edmonds–Gallai pass both certificates share: D is the set of
   outer vertices of the (failing) searches from every free vertex, A is
   N(D) \ D.  [fn] names the caller in its [Invalid_argument] messages. *)
let d_and_a ~fn g matching =
  let nv = Graph.n g in
  if Matching.n matching <> nv then invalid_arg (fn ^ ": size mismatch");
  let mates = Array.init nv (Matching.mate matching) in
  let st = make_state g mates in
  let d = Array.make nv false in
  for root = 0 to nv - 1 do
    if st.mates.(root) = -1 then begin
      let endpoint = find_path st ~max_len:nv root in
      if endpoint <> -1 then invalid_arg (fn ^ ": matching is not maximum");
      for v = 0 to nv - 1 do
        if st.used.(v) then d.(v) <- true
      done
    end
  done;
  let a = Array.make nv false in
  for v = 0 to nv - 1 do
    if d.(v) then
      Graph.iter_neighbors g v (fun u -> if not d.(u) then a.(u) <- true)
  done;
  (d, a)

let tutte_berge_witness g matching =
  snd (d_and_a ~fn:"Blossom.tutte_berge_witness" g matching)

type gallai_edmonds = { d : bool array; a : bool array; c : bool array }

let gallai_edmonds g matching =
  let d, a = d_and_a ~fn:"Blossom.gallai_edmonds" g matching in
  let c = Array.init (Graph.n g) (fun v -> (not d.(v)) && not a.(v)) in
  { d; a; c }

let augment_once g matching =
  let nv = Graph.n g in
  if Matching.n matching <> nv then invalid_arg "Blossom.augment_once: size";
  let mates = Array.init nv (Matching.mate matching) in
  let st = make_state g mates in
  let found = ref false in
  let root = ref 0 in
  while (not !found) && !root < nv do
    if st.mates.(!root) = -1 then begin
      let endpoint = find_path st ~max_len:nv !root in
      if endpoint <> -1 then begin
        apply_augmentation st endpoint;
        found := true
      end
    end;
    incr root
  done;
  if !found then begin
    Matching.clear matching;
    Array.iteri (fun v u -> if u > v then Matching.add matching v u) st.mates
  end;
  !found
