(* Run output: a human-readable report (stamp, every metric with its
   unit and sample count, work fingerprints), then one JSON line with
   the metrics the benchmark's contract gates on. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

type t = {
  mutable json : metric list;  (* reversed *)
  mutable text : metric list;  (* reversed: everything printed *)
  mutable fingerprint : (string * string) list;  (* reversed *)
  mutable violations : string list;  (* reversed *)
}

let create () = { json = []; text = []; fingerprint = []; violations = [] }

(* [~gate:true] also puts the metric in the JSON line *)
let add ?(gate = false) t ~name ~unit_ ~samples value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s is not finite" name);
  let m = { name; value; unit_; samples } in
  t.text <- m :: t.text;
  if gate then t.json <- m :: t.json

let note_na t ~name ~unit_ = t.text <- { name; value = Float.nan; unit_; samples = 0 } :: t.text
let fingerprint t key v = t.fingerprint <- (key, v) :: t.fingerprint
let fingerprint_int t key v = fingerprint t key (string_of_int v)
let check t ok what = if not ok then t.violations <- what :: t.violations
let correct t = t.violations = []

let print_stamp kvs =
  print_string "stamp:";
  List.iter (fun (k, v) -> Printf.printf " %s=%s" k v) kvs;
  print_newline ()

(* JSON numbers: every digit the measurement has *)
let number v = Printf.sprintf "%.17g" v

let print t ~attempted ~failed =
  List.iter
    (fun v -> Printf.printf "CHECK FAILED: %s\n" v)
    (List.rev t.violations);
  List.iter
    (fun m ->
      if Float.is_nan m.value then Printf.printf "metric %-34s n/a (%s)\n" m.name m.unit_
      else
        Printf.printf "metric %-34s %.6g %s (n=%d)\n" m.name m.value m.unit_ m.samples)
    (List.rev t.text);
  print_string "fingerprint:";
  List.iter (fun (k, v) -> Printf.printf " %s=%s" k v) (List.rev t.fingerprint);
  print_newline ();
  let metrics =
    List.rev_map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value)
          m.unit_)
      t.json
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct t) attempted failed (String.concat ", " metrics)
