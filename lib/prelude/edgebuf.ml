type t = { mutable data : int array; mutable len : int }

let create ?(initial_capacity = 16) () =
  { data = Array.make (Int.max initial_capacity 1) 0; len = 0 }

let length t = t.len

let ensure_capacity t cap =
  let old = Array.length t.data in
  if cap > old then begin
    let data = Array.make (Int.max cap (2 * old)) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t v =
  if t.len = Array.length t.data then ensure_capacity t (t.len + 1);
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

(* precondition (unchecked): len < capacity — callers reserve with
   [ensure_capacity] once per block *)
let push_unchecked t v =
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

let data t = t.data

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc
