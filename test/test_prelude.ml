(* Tests for mspar_prelude: RNG determinism and uniformity, the O(1)-init
   sparse array, the read-only without-replacement sampler, vectors,
   bitsets, statistics and tables. *)

open Mspar_prelude

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    if Rng.bits64 a <> Rng.bits64 b then Alcotest.fail "streams diverge"
  done;
  let c = Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 c then differs := true
  done;
  check_bool "different seeds differ" true !differs

let test_rng_copy_and_split () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  check_bool "copies agree" true (Rng.bits64 a = Rng.bits64 b);
  let c = Rng.split a in
  (* the split stream should not mirror the parent *)
  let same = ref 0 in
  for _ = 1 to 20 do
    if Rng.bits64 a = Rng.bits64 c then incr same
  done;
  check "split independent" 0 !same

let test_rng_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "out of bounds"
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    if v < -5 || v > 5 then Alcotest.fail "range violated"
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_uniformity () =
  (* chi-square-ish sanity: each residue of a 10-bucket draw should be
     within 20% of the mean over 100k draws *)
  let rng = Rng.create 2 in
  let buckets = Array.make 10 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      check_bool
        (Printf.sprintf "bucket count %d near %d" c (trials / 10))
        true
        (abs (c - (trials / 10)) < trials / 50))
    buckets

let test_rng_float_and_bernoulli () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Rng.float rng 1.0 in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done;
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_bool "bernoulli near 0.3" true (abs (!hits - 3000) < 300)

let test_rng_sample_distinct () =
  let rng = Rng.create 4 in
  let s = Rng.sample_distinct rng ~k:5 ~n:10 in
  check "five drawn" 5 (Array.length s);
  check "distinct" 5 (List.length (List.sort_uniq compare (Array.to_list s)));
  Array.iter (fun v -> check_bool "in range" true (v >= 0 && v < 10)) s;
  (* k >= n returns everything *)
  let all = Rng.sample_distinct rng ~k:99 ~n:6 in
  check "capped at n" 6 (Array.length all);
  check_bool "is a permutation of 0..5" true
    (List.sort compare (Array.to_list all) = [ 0; 1; 2; 3; 4; 5 ]);
  check "k=0 empty" 0 (Array.length (Rng.sample_distinct rng ~k:0 ~n:5))

let test_rng_sample_distinct_uniform () =
  (* each element of [0,6) should appear in a 3-subset with probability 1/2 *)
  let rng = Rng.create 5 in
  let counts = Array.make 6 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    Array.iter
      (fun v -> counts.(v) <- counts.(v) + 1)
      (Rng.sample_distinct rng ~k:3 ~n:6)
  done;
  Array.iter
    (fun c -> check_bool "inclusion near 1/2" true (abs (c - (trials / 2)) < trials / 20))
    counts

let test_rng_perm () =
  let rng = Rng.create 6 in
  let p = Rng.perm rng 8 in
  check_bool "is a permutation" true
    (List.sort compare (Array.to_list p) = [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* ------------------------------------------------------------------ *)
(* Sparse_array                                                       *)
(* ------------------------------------------------------------------ *)

let test_sparse_array_defaults () =
  let a = Sparse_array.create 5 ~default:(-1) in
  check "length" 5 (Sparse_array.length a);
  for i = 0 to 4 do
    check "default read" (-1) (Sparse_array.get a i);
    check_bool "not set" false (Sparse_array.is_set a i)
  done

let test_sparse_array_set_get_reset () =
  let a = Sparse_array.create 10 ~default:0 in
  Sparse_array.set a 3 33;
  Sparse_array.set a 7 77;
  check "read back" 33 (Sparse_array.get a 3);
  check "read back 2" 77 (Sparse_array.get a 7);
  check "untouched stays default" 0 (Sparse_array.get a 5);
  check "live count" 2 (Sparse_array.live_count a);
  Sparse_array.set a 3 34;
  check "overwrite" 34 (Sparse_array.get a 3);
  check "live count stable on overwrite" 2 (Sparse_array.live_count a);
  Sparse_array.reset a;
  check "live count after reset" 0 (Sparse_array.live_count a);
  for i = 0 to 9 do
    check "default after reset" 0 (Sparse_array.get a i)
  done;
  (* values written before reset must not leak through is_set *)
  Sparse_array.set a 1 11;
  check "post-reset write" 11 (Sparse_array.get a 1);
  check "post-reset other slot" 0 (Sparse_array.get a 3)

let test_sparse_array_reset_stress () =
  (* the back/stack discipline must survive many interleaved resets *)
  let a = Sparse_array.create 50 ~default:(-7) in
  let reference = Hashtbl.create 16 in
  let rng = Rng.create 9 in
  for _ = 1 to 5000 do
    match Rng.int rng 10 with
    | 0 ->
        Sparse_array.reset a;
        Hashtbl.reset reference
    | _ ->
        let i = Rng.int rng 50 in
        if Rng.bool rng then begin
          let v = Rng.int rng 1000 in
          Sparse_array.set a i v;
          Hashtbl.replace reference i v
        end
        else begin
          let expect =
            match Hashtbl.find_opt reference i with Some v -> v | None -> -7
          in
          if Sparse_array.get a i <> expect then
            Alcotest.fail "sparse array disagrees with reference"
        end
  done

let test_rng_fill_bits62 () =
  (* the batch fill is the same stream as repeated bits62 calls — words
     and final state both *)
  let a = Rng.create 77 and b = Rng.create 77 in
  let buf = Array.make 100 0 in
  Rng.fill_bits62 a buf ~pos:0 ~len:100;
  for i = 0 to 99 do
    if buf.(i) <> Rng.bits62 b then Alcotest.fail "batched word diverges"
  done;
  check_bool "final states agree" true (Rng.state a = Rng.state b);
  Rng.fill_bits62 a buf ~pos:10 ~len:5;
  for i = 10 to 14 do
    if buf.(i) <> Rng.bits62 b then Alcotest.fail "offset fill diverges"
  done;
  Array.iter (fun w -> check_bool "62-bit nonneg" true (w >= 0)) buf;
  Alcotest.check_raises "oob range"
    (Invalid_argument "Rng.fill_bits62: range out of bounds") (fun () ->
      Rng.fill_bits62 a buf ~pos:90 ~len:20)

let qcheck_int_with_matches_int =
  QCheck.Test.make
    ~name:"int_with over the raw word stream reproduces int, state included"
    ~count:300
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 10_000))
    (fun (bound, seed) ->
      let a = Rng.create seed and b = Rng.create seed in
      let next () = Rng.bits62 b in
      let ok = ref true in
      for _ = 0 to 19 do
        if Rng.int a bound <> Rng.int_with ~next bound then ok := false
      done;
      !ok && Rng.state a = Rng.state b)

(* ------------------------------------------------------------------ *)
(* Sampling                                                           *)
(* ------------------------------------------------------------------ *)

let test_sampling_basic () =
  let s = Sampling.create ~capacity:100 in
  let rng = Rng.create 10 in
  let out = ref [] in
  Sampling.sample_indices s rng ~n:50 ~k:10 ~f:(fun i -> out := i :: !out);
  check "ten sampled" 10 (List.length !out);
  check "distinct" 10 (List.length (List.sort_uniq compare !out));
  List.iter (fun i -> check_bool "in range" true (i >= 0 && i < 50)) !out;
  check "steps recorded" 10 (Sampling.steps_last_call s)

let test_sampling_k_exceeds_n () =
  let s = Sampling.create ~capacity:10 in
  let rng = Rng.create 11 in
  let out = ref [] in
  Sampling.sample_indices s rng ~n:4 ~k:100 ~f:(fun i -> out := i :: !out);
  check_bool "whole population, each once" true
    (List.sort compare !out = [ 0; 1; 2; 3 ])

let test_sampling_reuse_is_clean () =
  (* consecutive calls must not leak positions across resets *)
  let s = Sampling.create ~capacity:20 in
  let rng = Rng.create 12 in
  for _ = 1 to 200 do
    let out = ref [] in
    Sampling.sample_indices s rng ~n:20 ~k:7 ~f:(fun i -> out := i :: !out);
    if List.length (List.sort_uniq compare !out) <> 7 then
      Alcotest.fail "duplicate under reuse"
  done

let test_sampling_uniform () =
  let s = Sampling.create ~capacity:6 in
  let rng = Rng.create 13 in
  let counts = Array.make 6 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    Sampling.sample_indices s rng ~n:6 ~k:2 ~f:(fun i ->
        counts.(i) <- counts.(i) + 1)
  done;
  (* inclusion probability 1/3 each *)
  Array.iter
    (fun c -> check_bool "inclusion near 1/3" true (abs (c - (trials / 3)) < trials / 15))
    counts

let qcheck_sampling_batched_equals_unbatched =
  QCheck.Test.make
    ~name:"batched sample_indices matches the unbatched draw loop bit for bit"
    ~count:300
    QCheck.(triple (int_range 0 60) (int_range 0 80) (int_range 0 10_000))
    (fun (n, k, seed) ->
      let s = Sampling.create ~capacity:60 in
      let a = Rng.create seed and b = Rng.create seed in
      let batched = ref [] in
      Sampling.sample_indices s a ~n ~k ~f:(fun i -> batched := i :: !batched);
      (* the pre-batching reference: one Rng.int per draw, emulated
         Fisher–Yates over a plain positions array *)
      let pos = Array.make (Int.max n 1) (-1) in
      let value_at i = if pos.(i) = -1 then i else pos.(i) in
      let k = Int.min k n in
      let reference = ref [] in
      for step = 0 to k - 1 do
        let last = n - 1 - step in
        let j = Rng.int b (last + 1) in
        reference := value_at j :: !reference;
        pos.(j) <- value_at last
      done;
      !batched = !reference && Rng.state a = Rng.state b)

let test_sampling_capacity_check () =
  let s = Sampling.create ~capacity:4 in
  Alcotest.check_raises "over capacity"
    (Invalid_argument "Sampling.sample_indices: population exceeds capacity")
    (fun () ->
      Sampling.sample_indices s (Rng.create 0) ~n:5 ~k:1 ~f:(fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* Vec / Bitset                                                       *)
(* ------------------------------------------------------------------ *)

let test_vec () =
  let v = Vec.create ~dummy:(-1) () in
  check_bool "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  check "length" 100 (Vec.length v);
  check "get" 42 (Vec.get v 42);
  Vec.set v 42 420;
  check "set" 420 (Vec.get v 42);
  check "pop" 99 (Vec.pop v);
  check "length after pop" 99 (Vec.length v);
  check "fold" (420 + (99 * 98 / 2) - 42) (Vec.fold_left ( + ) 0 v);
  check_bool "exists" true (Vec.exists (fun x -> x = 420) v);
  let arr = Vec.to_array v in
  check "to_array length" 99 (Array.length arr);
  Vec.clear v;
  check "cleared" 0 (Vec.length v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty")
    (fun () -> ignore (Vec.pop v));
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 0))

let test_bitset () =
  let b = Bitset.create 200 in
  check "empty cardinal" 0 (Bitset.cardinal b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 199;
  check "cardinal" 4 (Bitset.cardinal b);
  check_bool "mem" true (Bitset.mem b 63);
  check_bool "not mem" false (Bitset.mem b 100);
  check_bool "list" true (Bitset.to_list b = [ 0; 63; 64; 199 ]);
  check_bool "first" true (Bitset.first_mem b = Some 0);
  Bitset.remove b 0;
  check_bool "first after remove" true (Bitset.first_mem b = Some 63);
  let c = Bitset.copy b in
  Bitset.add c 5;
  check "copy independent" 3 (Bitset.cardinal b);
  let x = Bitset.create 100 and y = Bitset.create 100 in
  Bitset.add x 1;
  Bitset.add x 2;
  Bitset.add x 70;
  Bitset.add y 2;
  Bitset.add y 70;
  Bitset.add y 99;
  check "inter cardinal" 2 (Bitset.inter_cardinal x y);
  check_bool "diff" true (Bitset.to_list (Bitset.diff x y) = [ 1 ]);
  check_bool "inter" true (Bitset.to_list (Bitset.inter x y) = [ 2; 70 ]);
  Bitset.clear x;
  check "cleared" 0 (Bitset.cardinal x);
  check_bool "first of empty" true (Bitset.first_mem x = None)

(* ------------------------------------------------------------------ *)
(* Stats / Table / Clock                                              *)
(* ------------------------------------------------------------------ *)

let test_stats () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "stddev" (sqrt 2.5) (Stats.stddev xs);
  let lo, hi = Stats.min_max xs in
  Alcotest.(check (float 1e-9)) "min" 1.0 lo;
  Alcotest.(check (float 1e-9)) "max" 5.0 hi;
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0);
  let s = Stats.summarize xs in
  check "summary n" 5 s.Stats.n;
  Alcotest.(check (float 1e-9)) "mean of empty" 0.0 (Stats.mean [||]);
  Alcotest.(check (float 1e-9)) "stddev single" 0.0 (Stats.stddev [| 9.0 |])

let test_table_smoke () =
  let t = Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; Table.cell_i 3 ];
  Table.add_rule t;
  Table.add_row t [ "beta"; Table.cell_f 3.14159 ];
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong arity")
    (fun () -> Table.add_row t [ "too"; "many"; "cells" ]);
  (* render to /dev/null just to exercise the layout code *)
  let oc = open_out "/dev/null" in
  Table.print ~oc t;
  close_out oc;
  check_bool "cell_f int-like" true (Table.cell_f 4.0 = "4");
  check_bool "cell_b" true (Table.cell_b true = "yes")

let test_clock () =
  let (), ns = Clock.time_ns (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0))) in
  check_bool "non-negative" true (Int64.compare ns 0L >= 0);
  check_bool "ms conversion" true (Clock.ns_to_ms 2_000_000L = 2.0)

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)
(* ------------------------------------------------------------------ *)

let qcheck_sample_distinct_valid =
  QCheck.Test.make ~name:"sample_distinct returns distinct in-range values"
    ~count:200
    QCheck.(triple (int_range 0 50) (int_range 0 60) (int_range 0 10_000))
    (fun (n, k, seed) ->
      let rng = Rng.create seed in
      let s = Rng.sample_distinct rng ~k ~n in
      Array.length s = min k n
      && List.length (List.sort_uniq compare (Array.to_list s)) = Array.length s
      && Array.for_all (fun v -> v >= 0 && v < n) s)

let qcheck_sparse_array_semantics =
  QCheck.Test.make ~name:"sparse array behaves like a hashtable with default"
    ~count:100
    QCheck.(pair (int_range 1 30) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let a = Sparse_array.create n ~default:0 in
      let h = Hashtbl.create 8 in
      let ok = ref true in
      for _ = 1 to 200 do
        let i = Rng.int rng n in
        match Rng.int rng 3 with
        | 0 ->
            let v = Rng.int rng 100 in
            Sparse_array.set a i v;
            Hashtbl.replace h i v
        | 1 ->
            let expect = Option.value ~default:0 (Hashtbl.find_opt h i) in
            if Sparse_array.get a i <> expect then ok := false
        | _ ->
            if Rng.int rng 10 = 0 then begin
              Sparse_array.reset a;
              Hashtbl.reset h
            end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Edgebuf / Isort                                                    *)
(* ------------------------------------------------------------------ *)

let test_edgebuf () =
  let b = Edgebuf.create ~initial_capacity:2 () in
  check_bool "fresh empty" true (Edgebuf.is_empty b);
  for i = 0 to 99 do
    Edgebuf.push b (i * 3)
  done;
  check "length" 100 (Edgebuf.length b);
  check "get 0" 0 (Edgebuf.get b 0);
  check "get 99" 297 (Edgebuf.get b 99);
  check_bool "capacity grew" true (Edgebuf.capacity b >= 100);
  Alcotest.check_raises "oob get" (Invalid_argument "Edgebuf: index out of bounds")
    (fun () -> ignore (Edgebuf.get b 100));
  let arr = Edgebuf.to_array b in
  check "to_array len" 100 (Array.length arr);
  check "to_array content" 150 arr.(50);
  (* data exposes the live storage prefix *)
  check "data prefix" 150 (Edgebuf.data b).(50);
  let sum = Edgebuf.fold_left ( + ) 0 b in
  check "fold" (3 * (99 * 100 / 2)) sum;
  let seen = ref 0 in
  Edgebuf.iter (fun _ -> incr seen) b;
  check "iter visits all" 100 !seen;
  (* blit_into concatenation *)
  let c = Edgebuf.create () in
  Edgebuf.push c 7;
  let dst = Array.make (Edgebuf.length b + Edgebuf.length c) (-1) in
  Edgebuf.blit_into b dst 0;
  Edgebuf.blit_into c dst (Edgebuf.length b);
  check "blit end" 7 dst.(100);
  Alcotest.check_raises "blit oob"
    (Invalid_argument "Edgebuf.blit_into: destination range out of bounds")
    (fun () -> Edgebuf.blit_into b dst 2);
  Edgebuf.append ~into:c b;
  check "append length" 101 (Edgebuf.length c);
  check "append content" 0 (Edgebuf.get c 1);
  Edgebuf.clear b;
  check "clear" 0 (Edgebuf.length b);
  Edgebuf.push b 42;
  check "reusable after clear" 42 (Edgebuf.get b 0);
  (* push_unchecked after an explicit reservation (the marking hot path) *)
  let u = Edgebuf.create ~initial_capacity:1 () in
  Edgebuf.ensure_capacity u 64;
  for i = 0 to 63 do
    Edgebuf.push_unchecked u i
  done;
  check "unchecked length" 64 (Edgebuf.length u);
  check "unchecked content" 63 (Edgebuf.get u 63);
  check_bool "no reallocation happened" true (Edgebuf.capacity u = 64)

let test_bigvec () =
  let v = Bigvec.create 8 in
  check "length" 8 (Bigvec.length v);
  check "zero-filled" 0 (Bigvec.get v 3);
  Bigvec.set v 3 42;
  check "set/get" 42 (Bigvec.get v 3);
  check_bool "checked get raises on oob" true
    (try
       ignore (Bigvec.get v 8);
       false
     with Invalid_argument _ -> true);
  let a = Bigvec.of_array [| 5; 4; 3; 2; 1 |] in
  check_bool "of_array/to_array roundtrip" true
    (Bigvec.to_array a = [| 5; 4; 3; 2; 1 |]);
  let c = Bigvec.copy a in
  Bigvec.set c 0 9;
  check "copy is detached" 5 (Bigvec.get a 0);
  check_bool "equal" true (Bigvec.equal a (Bigvec.of_array [| 5; 4; 3; 2; 1 |]));
  check_bool "not equal" false (Bigvec.equal a c);
  check_bool "length mismatch unequal" false (Bigvec.equal a (Bigvec.create 3));
  let dst = Bigvec.create 5 in
  Bigvec.blit ~src:a ~src_pos:1 ~dst ~dst_pos:2 ~len:3;
  check "blit" 4 (Bigvec.get dst 2);
  (* sub shares storage — mutating the window is visible in the parent *)
  let sub = Bigvec.sub a ~pos:1 ~len:2 in
  Bigvec.set sub 0 77;
  check "sub shares storage" 77 (Bigvec.get a 1);
  Bigvec.fill dst 6;
  check "fill" 6 (Bigvec.get dst 0);
  check "fold" (5 + 77 + 3 + 2 + 1) (Bigvec.fold_left ( + ) 0 a);
  let seen = ref 0 in
  Bigvec.iter (fun _ -> incr seen) a;
  check "iter" 5 !seen;
  check "empty length" 0 (Bigvec.length (Bigvec.create 0));
  Alcotest.check_raises "negative create"
    (Invalid_argument "Bigvec.create: negative length") (fun () ->
      ignore (Bigvec.create (-1)));
  Alcotest.check_raises "sub oob"
    (Invalid_argument "Bigvec.sub: range out of bounds") (fun () ->
      ignore (Bigvec.sub a ~pos:4 ~len:3));
  Alcotest.check_raises "blit oob"
    (Invalid_argument "Bigvec.blit: range out of bounds") (fun () ->
      Bigvec.blit ~src:a ~src_pos:0 ~dst ~dst_pos:3 ~len:3)

let test_isort_known () =
  let a = [| 5; 3; 1; 4; 2 |] in
  Isort.sort a;
  check_bool "small sort" true (a = [| 1; 2; 3; 4; 5 |]);
  let e = [||] in
  Isort.sort e;
  check "empty" 0 (Array.length e);
  let one = [| 9 |] in
  Isort.sort one;
  check "singleton" 9 one.(0);
  (* sort_range leaves the rest untouched *)
  let r = [| 9; 8; 7; 6; 5; 4 |] in
  Isort.sort_range r ~pos:1 ~len:3;
  check_bool "range sorted" true (r = [| 9; 6; 7; 8; 5; 4 |]);
  Alcotest.check_raises "bad range"
    (Invalid_argument "Isort.sort_range: range out of bounds") (fun () ->
      Isort.sort_range r ~pos:4 ~len:3);
  check_bool "is_sorted" true (Isort.is_sorted [| 1; 1; 2; 3 |]);
  check_bool "is_sorted detects" false (Isort.is_sorted [| 2; 1 |])

let test_isort_adversarial () =
  (* shapes that hurt naive quicksorts: sorted, reverse-sorted, constant,
     organ-pipe, and few-distinct-values arrays, at sizes around the
     insertion cutoff and well above it *)
  let shapes n =
    [
      Array.init n (fun i -> i);
      Array.init n (fun i -> n - i);
      Array.make n 3;
      Array.init n (fun i -> min i (n - i));
      Array.init n (fun i -> i mod 3);
    ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun a ->
          let expect = Array.copy a in
          Array.sort compare expect;
          Isort.sort a;
          check_bool (Printf.sprintf "adversarial n=%d" n) true (a = expect))
        (shapes n))
    [ 2; 15; 16; 17; 100; 1000 ]

let qcheck_isort_matches_stdlib =
  QCheck.Test.make ~name:"Isort.sort agrees with Array.sort compare"
    ~count:200
    QCheck.(array_of_size (QCheck.Gen.int_range 0 200) small_signed_int)
    (fun a ->
      let mine = Array.copy a and theirs = Array.copy a in
      Isort.sort mine;
      Array.sort compare theirs;
      mine = theirs)

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_chunk_bounds () =
  (* the ranges partition [0, n) in order, with sizes differing by <= 1 *)
  List.iter
    (fun (chunks, n) ->
      let expected_lo = ref 0 in
      let sizes = ref [] in
      for k = 0 to chunks - 1 do
        let lo, hi = Pool.chunk_bounds ~chunks ~n k in
        check (Printf.sprintf "lo contiguous (c=%d n=%d k=%d)" chunks n k) !expected_lo lo;
        check_bool "ordered" true (lo <= hi);
        expected_lo := hi;
        sizes := (hi - lo) :: !sizes
      done;
      check (Printf.sprintf "covers [0,%d)" n) n !expected_lo;
      let mn, mx =
        List.fold_left (fun (a, b) s -> (min a s, max b s)) (max_int, 0) !sizes
      in
      check_bool "balanced" true (chunks = 0 || mx - mn <= 1))
    [ (1, 0); (1, 10); (3, 10); (4, 4); (7, 3); (8, 100); (5, 0) ]

let test_pool_parallel_for_covers () =
  let pool = Pool.create ~num_domains:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      check "size" 3 (Pool.size pool);
      List.iter
        (fun (chunks, n) ->
          let hits = Array.make (max n 1) 0 in
          (* Alcotest checks must run on the calling domain: record the
             condition in the workers, assert it after the join *)
          let chunks_in_range = Atomic.make true in
          Pool.parallel_for_ranges pool ?chunks ~n (fun ~chunk ~lo ~hi ->
              if chunk < 0 then Atomic.set chunks_in_range false;
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          check_bool "chunk id in range" true (Atomic.get chunks_in_range);
          for i = 0 to n - 1 do
            check (Printf.sprintf "index %d visited once (n=%d)" i n) 1 hits.(i)
          done)
        [ (None, 0); (None, 1); (None, 2); (None, 100); (Some 1, 50);
          (Some 7, 10); (Some 7, 3); (Some 16, 1000) ])

let test_pool_single_domain_never_spawns () =
  (* a size-1 pool runs everything on the caller; observable via Domain.self *)
  let pool = Pool.create ~num_domains:1 () in
  let me = (Domain.self () :> int) in
  let seen = ref [] in
  Pool.parallel_for_ranges pool ~chunks:4 ~n:8 (fun ~chunk:_ ~lo:_ ~hi:_ ->
      seen := (Domain.self () :> int) :: !seen);
  check "all four chunks ran" 4 (List.length !seen);
  List.iter (fun d -> check "on the caller's domain" me d) !seen;
  Pool.shutdown pool

let test_pool_exception_propagates () =
  let pool = Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (match
         Pool.parallel_for_ranges pool ~chunks:4 ~n:4 (fun ~chunk ~lo:_ ~hi:_ ->
             if chunk = 1 then failwith "boom")
       with
      | () -> Alcotest.fail "expected the chunk's exception to propagate"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m);
      (* the pool is still usable after a failed job *)
      let total = Atomic.make 0 in
      Pool.parallel_for_ranges pool ~n:10 (fun ~chunk:_ ~lo ~hi ->
          ignore (Atomic.fetch_and_add total (hi - lo)));
      check "usable after failure" 10 (Atomic.get total))

let test_pool_shutdown_and_restart () =
  let pool = Pool.create ~num_domains:2 () in
  let count () =
    let total = Atomic.make 0 in
    Pool.parallel_for_ranges pool ~n:7 (fun ~chunk:_ ~lo ~hi ->
        ignore (Atomic.fetch_and_add total (hi - lo)));
    Atomic.get total
  in
  check "first use" 7 (count ());
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  check "restarts lazily after shutdown" 7 (count ());
  Pool.shutdown pool

let test_pool_create_validation () =
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Pool.create: num_domains must be in [1, 128]") (fun () ->
      ignore (Pool.create ~num_domains:0 ()));
  Alcotest.check_raises "too many domains"
    (Invalid_argument "Pool.create: num_domains must be in [1, 128]") (fun () ->
      ignore (Pool.create ~num_domains:129 ()))

let test_pool_default_size_env () =
  (* Unix.putenv is process-global; restore afterwards.  Sys.getenv_opt sees
     putenv updates in OCaml's runtime. *)
  let old = Sys.getenv_opt "MSPAR_DOMAINS" in
  let restore () =
    match old with Some v -> Unix.putenv "MSPAR_DOMAINS" v | None -> Unix.putenv "MSPAR_DOMAINS" ""
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "MSPAR_DOMAINS" "3";
      check "env override" 3 (Pool.default_size ());
      Unix.putenv "MSPAR_DOMAINS" "999";
      check_bool "out-of-range ignored" true (Pool.default_size () >= 1);
      Unix.putenv "MSPAR_DOMAINS" "zebra";
      check_bool "garbage ignored" true (Pool.default_size () >= 1))

let test_pool_get_default () =
  let a = Pool.get_default () and b = Pool.get_default () in
  check_bool "process-wide singleton" true (a == b);
  check_bool "sized by default_size" true (Pool.size a >= 1)

(* ------------------------------------------------------------------ *)
(* Codec.Frames — the incremental frame reader under the serve wire    *)
(* ------------------------------------------------------------------ *)

(* drain every complete frame currently buffered; returns frames in
   arrival order plus the corrupt verdict if one fired *)
let frames_drain t =
  let rec go acc =
    match Codec.Frames.next t with
    | `Frame b -> go (b :: acc)
    | `Need_more -> (List.rev acc, None)
    | `Corrupt msg -> (List.rev acc, Some msg)
  in
  go []

let test_frames_roundtrip () =
  let bodies = [ ""; "a"; "hello"; String.make 300 '\x00'; "\xff\x00\xfe" ] in
  let buf = Buffer.create 256 in
  List.iter (Codec.Frames.encode buf) bodies;
  let t = Codec.Frames.create () in
  Codec.Frames.feed t (Buffer.contents buf);
  let got, corrupt = frames_drain t in
  check_bool "no corruption" true (corrupt = None);
  Alcotest.(check (list string)) "bodies round-trip" bodies got;
  check "nothing left buffered" 0 (Codec.Frames.buffered t)

let test_frames_byte_at_a_time () =
  let bodies = [ "x"; "incremental"; "" ] in
  let buf = Buffer.create 64 in
  List.iter (Codec.Frames.encode buf) bodies;
  let s = Buffer.contents buf in
  let t = Codec.Frames.create () in
  let got = ref [] in
  String.iteri
    (fun i _ ->
      Codec.Frames.feed t ~pos:i ~len:1 s;
      let fs, corrupt = frames_drain t in
      check_bool "never corrupt" true (corrupt = None);
      got := !got @ fs)
    s;
  Alcotest.(check (list string)) "bodies survive 1-byte chunks" bodies !got

let test_frames_bad_crc_is_sticky () =
  let buf = Buffer.create 64 in
  Codec.Frames.encode buf "doomed";
  let s = Bytes.of_string (Buffer.contents buf) in
  let last = Bytes.length s - 1 in
  Bytes.set s last (Char.chr (Char.code (Bytes.get s last) lxor 1));
  let t = Codec.Frames.create () in
  Codec.Frames.feed t (Bytes.to_string s);
  (match Codec.Frames.next t with
  | `Corrupt _ -> ()
  | `Frame _ | `Need_more -> Alcotest.fail "flipped CRC must be corrupt");
  check "corrupt drops the buffer" 0 (Codec.Frames.buffered t);
  (* sticky: feeding a perfectly valid frame afterwards changes nothing *)
  let ok = Buffer.create 16 in
  Codec.Frames.encode ok "fine";
  Codec.Frames.feed t (Buffer.contents ok);
  (match Codec.Frames.next t with
  | `Corrupt _ -> ()
  | `Frame _ | `Need_more -> Alcotest.fail "corrupt state must be sticky");
  check "feed after corrupt is a no-op" 0 (Codec.Frames.buffered t)

let test_frames_hostile_lengths () =
  (* a declared body length above max_frame is corruption, not a request
     to buffer it *)
  let buf = Buffer.create 64 in
  Codec.add_uvarint buf 1024;
  let t = Codec.Frames.create ~max_frame:64 () in
  Codec.Frames.feed t (Buffer.contents buf);
  (match Codec.Frames.next t with
  | `Corrupt _ -> ()
  | `Frame _ | `Need_more -> Alcotest.fail "oversized length must be corrupt");
  (* an over-long varint (9+ continuation bytes) can never finish *)
  let t = Codec.Frames.create () in
  Codec.Frames.feed t (String.make 9 '\xff');
  (match Codec.Frames.next t with
  | `Corrupt _ -> ()
  | `Frame _ | `Need_more -> Alcotest.fail "over-long varint must be corrupt");
  (* a complete 9-byte length with bit 62 set decodes negative: it must
     be refused, not passed to [String.sub] as a body length *)
  let top_bit = String.make 8 '\x80' ^ "\x40" in
  (match Codec.read_uvarint (Codec.reader top_bit) with
  | n -> Alcotest.failf "top-bit word decoded as %d" n
  | exception Codec.Truncated -> ());
  let t = Codec.Frames.create () in
  Codec.Frames.feed t (top_bit ^ "xxxx");
  (match Codec.Frames.next t with
  | `Corrupt _ -> ()
  | `Frame _ | `Need_more -> Alcotest.fail "top-bit length must be corrupt");
  (match Codec.Frames.decode_all (top_bit ^ "xxxx") with
  | [], Codec.Frames.Bad _ -> ()
  | _ -> Alcotest.fail "decode_all: top-bit length must be Bad");
  (* but 8 high-bit bytes are still a legal prefix: keep waiting *)
  let t = Codec.Frames.create () in
  Codec.Frames.feed t (String.make 8 '\xff');
  match Codec.Frames.next t with
  | `Need_more -> ()
  | `Frame _ | `Corrupt _ -> Alcotest.fail "8 continuation bytes is a prefix"

let test_frames_decode_all_tails () =
  let buf = Buffer.create 64 in
  Codec.Frames.encode buf "one";
  Codec.Frames.encode buf "two";
  let s = Buffer.contents buf in
  (match Codec.Frames.decode_all s with
  | [ "one"; "two" ], Codec.Frames.Clean -> ()
  | _ -> Alcotest.fail "clean decode");
  (match Codec.Frames.decode_all (String.sub s 0 (String.length s - 2)) with
  | [ "one" ], Codec.Frames.Short -> ()
  | _ -> Alcotest.fail "torn tail is Short");
  match Codec.Frames.decode_all (s ^ String.make 9 '\xff') with
  | [ "one"; "two" ], Codec.Frames.Bad _ -> ()
  | _ -> Alcotest.fail "junk tail is Bad"

(* the load-bearing property: however the byte stream is chopped up, the
   incremental reader never raises and agrees bit-for-bit with the
   independent whole-buffer decoder — on valid input, torn input, and
   junk-suffixed input alike *)
let qcheck_frames_incremental_matches_whole_buffer =
  QCheck.Test.make
    ~name:"Frames: incremental == decode_all under any chunking" ~count:500
    QCheck.(pair (small_list (string_of_size (Gen.int_range 0 40)))
              (int_range 0 1_000_000))
    (fun (bodies, seed) ->
      let rng = Rng.create seed in
      let buf = Buffer.create 256 in
      List.iter (Codec.Frames.encode buf) bodies;
      let s = Buffer.contents buf in
      (* mutate the tail: 0 = leave clean, 1 = truncate, 2 = append junk *)
      let s =
        match Rng.int rng 3 with
        | 1 when String.length s > 0 -> String.sub s 0 (Rng.int rng (String.length s))
        | 2 ->
            s
            ^ String.init
                (1 + Rng.int rng 12)
                (fun _ -> Char.chr (Rng.int rng 256))
        | _ -> s
      in
      let expect, tail = Codec.Frames.decode_all s in
      let t = Codec.Frames.create () in
      let got = ref [] in
      let corrupt = ref None in
      let i = ref 0 in
      let n = String.length s in
      while !i < n do
        let len = Int.min (1 + Rng.int rng 7) (n - !i) in
        Codec.Frames.feed t ~pos:!i ~len s;
        i := !i + len;
        let fs, c = frames_drain t in
        got := !got @ fs;
        if !corrupt = None then corrupt := c
      done;
      List.equal String.equal expect !got
      &&
      match tail with
      | Codec.Frames.Bad _ -> !corrupt <> None
      | Codec.Frames.Short ->
          !corrupt = None && Codec.Frames.buffered t > 0
      | Codec.Frames.Clean ->
          !corrupt = None && Codec.Frames.buffered t = 0)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        qcheck_sample_distinct_valid;
        qcheck_sparse_array_semantics;
        qcheck_isort_matches_stdlib;
        qcheck_int_with_matches_int;
        qcheck_sampling_batched_equals_unbatched;
        qcheck_frames_incremental_matches_whole_buffer;
      ]
  in
  Alcotest.run "mspar_prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "copy and split" `Quick test_rng_copy_and_split;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "float and bernoulli" `Quick
            test_rng_float_and_bernoulli;
          Alcotest.test_case "sample_distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "sample_distinct uniform" `Quick
            test_rng_sample_distinct_uniform;
          Alcotest.test_case "perm" `Quick test_rng_perm;
          Alcotest.test_case "fill_bits62" `Quick test_rng_fill_bits62;
        ] );
      ( "sparse-array",
        [
          Alcotest.test_case "defaults" `Quick test_sparse_array_defaults;
          Alcotest.test_case "set/get/reset" `Quick
            test_sparse_array_set_get_reset;
          Alcotest.test_case "reset stress" `Quick test_sparse_array_reset_stress;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "basic" `Quick test_sampling_basic;
          Alcotest.test_case "k exceeds n" `Quick test_sampling_k_exceeds_n;
          Alcotest.test_case "reuse" `Quick test_sampling_reuse_is_clean;
          Alcotest.test_case "uniform" `Quick test_sampling_uniform;
          Alcotest.test_case "capacity check" `Quick test_sampling_capacity_check;
        ] );
      ( "containers",
        [
          Alcotest.test_case "vec" `Quick test_vec;
          Alcotest.test_case "bitset" `Quick test_bitset;
          Alcotest.test_case "edgebuf" `Quick test_edgebuf;
          Alcotest.test_case "bigvec" `Quick test_bigvec;
        ] );
      ( "isort",
        [
          Alcotest.test_case "known arrays" `Quick test_isort_known;
          Alcotest.test_case "adversarial shapes" `Quick test_isort_adversarial;
        ] );
      ( "stats",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "table" `Quick test_table_smoke;
          Alcotest.test_case "clock" `Quick test_clock;
        ] );
      ( "frames",
        [
          Alcotest.test_case "round trip" `Quick test_frames_roundtrip;
          Alcotest.test_case "byte-at-a-time chunks" `Quick
            test_frames_byte_at_a_time;
          Alcotest.test_case "bad CRC is sticky" `Quick
            test_frames_bad_crc_is_sticky;
          Alcotest.test_case "hostile lengths" `Quick
            test_frames_hostile_lengths;
          Alcotest.test_case "decode_all tail verdicts" `Quick
            test_frames_decode_all_tails;
        ] );
      ( "pool",
        [
          Alcotest.test_case "chunk bounds" `Quick test_pool_chunk_bounds;
          Alcotest.test_case "parallel_for coverage" `Quick
            test_pool_parallel_for_covers;
          Alcotest.test_case "single domain runs inline" `Quick
            test_pool_single_domain_never_spawns;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "shutdown and restart" `Quick
            test_pool_shutdown_and_restart;
          Alcotest.test_case "create validation" `Quick
            test_pool_create_validation;
          Alcotest.test_case "default_size env" `Quick
            test_pool_default_size_env;
          Alcotest.test_case "get_default" `Quick test_pool_get_default;
        ] );
      ("properties", qsuite);
    ]
