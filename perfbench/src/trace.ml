(* In-memory span recorder for the traced runs.  A span is (name, start,
   end, parent, op id); spans live in preallocated growable int arrays
   and are written out once, when the run ends.  A span's self time is
   its duration minus the durations of its direct children. *)

type t = {
  mutable names : string array;  (* interned span names *)
  mutable name_count : int;
  mutable name_of : int array;
  mutable start : int array;  (* ns, monotonic *)
  mutable stop : int array;
  mutable parent : int array;  (* -1 for a root *)
  mutable op : int array;
  mutable len : int;
  mutable top : int;  (* innermost open span, -1 if none *)
}

let create () =
  let cap = 1024 in
  {
    names = Array.make 16 "";
    name_count = 0;
    name_of = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
    len = 0;
    top = -1;
  }

let name t s =
  let rec find i =
    if i = t.name_count then begin
      if i = Array.length t.names then
        t.names <- Array.append t.names (Array.make i "");
      t.names.(i) <- s;
      t.name_count <- i + 1;
      i
    end
    else if String.equal t.names.(i) s then i
    else find (i + 1)
  in
  find 0

let grow t =
  let cap = 2 * Array.length t.start in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name_of <- ext t.name_of;
  t.start <- ext t.start;
  t.stop <- ext t.stop;
  t.parent <- ext t.parent;
  t.op <- ext t.op

let enter t ~name ~op =
  if t.len = Array.length t.start then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.name_of.(i) <- name;
  t.parent.(i) <- t.top;
  t.op.(i) <- op;
  t.top <- i;
  t.start.(i) <- Int64.to_int (Mono.now_ns ());
  i

let leave t i =
  t.stop.(i) <- Int64.to_int (Mono.now_ns ());
  t.top <- t.parent.(i)

let span t ~name ~op f =
  let i = enter t ~name ~op in
  match f () with
  | r ->
      leave t i;
      r
  | exception e ->
      leave t i;
      raise e

let duration t i = t.stop.(i) - t.start.(i)

type agg = { count : int; total_ns : int; self_ns : int }

(* per-name count, total and self time *)
let aggregate t =
  let child = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + duration t i
  done;
  let counts = Array.make t.name_count 0 in
  let totals = Array.make t.name_count 0 in
  let selfs = Array.make t.name_count 0 in
  for i = 0 to t.len - 1 do
    let k = t.name_of.(i) in
    counts.(k) <- counts.(k) + 1;
    totals.(k) <- totals.(k) + duration t i;
    selfs.(k) <- selfs.(k) + duration t i - child.(i)
  done;
  List.init t.name_count (fun k ->
      (t.names.(k), { count = counts.(k); total_ns = totals.(k); self_ns = selfs.(k) }))

let find aggs name =
  match List.assoc_opt name aggs with
  | Some a -> a
  | None -> { count = 0; total_ns = 0; self_ns = 0 }

(* durations of every span with this name, in record order *)
let durations t name =
  let k = ref (-1) in
  for i = 0 to t.name_count - 1 do
    if String.equal t.names.(i) name then k := i
  done;
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    if t.name_of.(i) = !k then out := duration t i :: !out
  done;
  Array.of_list !out

(* one TSV line per span: name, start, end, parent, op *)
let write t path =
  let oc = open_out path in
  output_string oc "name\tstart_ns\tend_ns\tparent\top\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" t.names.(t.name_of.(i)) t.start.(i)
      t.stop.(i) t.parent.(i) t.op.(i)
  done;
  close_out oc
