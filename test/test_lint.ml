(* msparlint rule engine: each rule must fire on a minimal bad snippet and
   stay silent on its good twin, under the one compiled-in set of scopes
   (Lint_config); [@lint.allow] must suppress findings.  All fixtures are
   inline strings, type-checked in memory by Lint_typed.typecheck_impl
   against the stdlib, unix and the built Mspar_prelude / Mspar_graph
   interfaces (both opened).  A fixture that does not type-check fails its
   test; it can never pass as "silent". *)

open Msparlint_lib

let codes findings = List.map (fun f -> f.Lint_types.code) findings
let fires code findings = List.exists (fun f -> String.equal f.Lint_types.code code) findings

(* MSP000 means the fixture itself does not compile: fail the test, so a
   broken fixture can never pass a [check_silent] *)
let compiled ~file findings =
  match List.find_opt (fun f -> String.equal f.Lint_types.code "MSP000") findings with
  | Some f -> Alcotest.failf "fixture %s does not type-check: %s" file f.Lint_types.message
  | None -> findings

(* Lint a fixture as if it lived at [file]; [intf] is the sibling interface
   source.  The default is an empty (but present) .mli so that lib/ fixtures
   exercise one rule at a time instead of also tripping MSP006; use
   [lint_nomli] to model a missing interface. *)
let lint ?(intf = "") ~file source =
  compiled ~file (Lint_engine.lint_impl ~file ~source ~mli:(Some intf))

let lint_nomli ~file source = compiled ~file (Lint_engine.lint_impl ~file ~source ~mli:None)

let check_fires msg code findings =
  Alcotest.(check bool) (msg ^ " fires " ^ code) true (fires code findings)

let check_silent msg code findings =
  Alcotest.(check bool) (msg ^ " silent on " ^ code) false (fires code findings)

(* ---------------------------------------------------------------- *)
(* MSP001: Stdlib.Random                                             *)
(* ---------------------------------------------------------------- *)

let test_msp001 () =
  check_fires "Random.int" "MSP001" (lint ~file:"lib/core/foo.ml" "let x = Random.int 5");
  check_fires "Random.self_init" "MSP001"
    (lint ~file:"bench/foo.ml" "let () = Random.self_init ()");
  check_fires "open Random" "MSP001" (lint ~file:"lib/core/foo.ml" "open Random\nlet x = int 5");
  check_silent "rng.ml is the blessed home" "MSP001"
    (lint ~file:"lib/prelude/rng.ml" "let x = Random.int 5");
  check_silent "seeded Rng" "MSP001"
    (lint ~file:"lib/core/foo.ml" "let x r = Rng.int r 5")

(* ---------------------------------------------------------------- *)
(* MSP002: polymorphic compare in hot dirs                           *)
(* ---------------------------------------------------------------- *)

let test_msp002 () =
  check_fires "bare compare" "MSP002"
    (lint ~file:"lib/graph/foo.ml" "let f l = List.sort compare l");
  check_fires "bare min" "MSP002" (lint ~file:"lib/prelude/foo.ml" "let f a b = min a b");
  check_fires "Stdlib.max" "MSP002" (lint ~file:"lib/core/foo.ml" "let f a b = Stdlib.max a b");
  check_fires "Hashtbl.hash" "MSP002"
    (lint ~file:"lib/core/foo.ml" "let f x = Hashtbl.hash x");
  check_fires "tuple =" "MSP002" (lint ~file:"lib/graph/foo.ml" "let f a b c = (a, b) = c");
  check_fires "lca is a hot dir" "MSP002"
    (lint ~file:"lib/lca/foo.ml" "let f l = List.sort compare l");
  check_silent "int = is monomorphic enough" "MSP002"
    (lint ~file:"lib/graph/foo.ml" "let f (a : int) b = a = b");
  check_silent "Int.compare" "MSP002"
    (lint ~file:"lib/graph/foo.ml" "let f l = List.sort Int.compare l");
  check_silent "Float.max" "MSP002" (lint ~file:"lib/graph/foo.ml" "let f a b = Float.max a b");
  check_silent "cold directory" "MSP002"
    (lint ~file:"lib/dynamic/foo.ml" "let f l = List.sort compare l");
  check_silent "test code is not hot" "MSP002"
    (lint ~file:"test/foo.ml" "let f a b c = (a, b) = c")

(* ---------------------------------------------------------------- *)
(* MSP003: CONGEST fidelity                                          *)
(* ---------------------------------------------------------------- *)

let test_msp003 () =
  check_fires "adjacency access in protocol code" "MSP003"
    (lint ~file:"lib/distsim/proto.ml" "let f g v = Graph.iter_neighbors g v (fun _ -> ())");
  check_fires "degree-free accessor" "MSP003"
    (lint ~file:"lib/distsim/proto.ml" "let f g u v = Graph.has_edge g u v");
  check_silent "network.ml is the substrate" "MSP003"
    (lint ~file:"lib/distsim/network.ml" "let f g v = Graph.iter_neighbors g v (fun _ -> ())");
  check_silent "outside distsim" "MSP003"
    (lint ~file:"lib/matching/foo.ml" "let f g v = Graph.iter_neighbors g v (fun _ -> ())");
  check_silent "metadata is free" "MSP003" (lint ~file:"lib/distsim/proto.ml" "let f g = Graph.n g")

(* ---------------------------------------------------------------- *)
(* MSP004: float log feeding integer rounding                        *)
(* ---------------------------------------------------------------- *)

let test_msp004 () =
  (* the exact PR 2 ceil_log2 regression *)
  check_fires "float ceil_log2" "MSP004"
    (lint ~file:"lib/distsim/network.ml"
       "let ceil_log2 n = int_of_float (ceil (log (float_of_int n) /. log 2.))");
  check_fires "truncate of **" "MSP004"
    (lint ~file:"lib/core/foo.ml" "let f k = truncate (2.0 ** float_of_int k)");
  check_fires "log-ratio idiom" "MSP004"
    (lint ~file:"lib/core/foo.ml" "let f x = log x /. log 2.");
  check_silent "integer shifts" "MSP004"
    (lint ~file:"lib/distsim/network.ml"
       "let ceil_log2 n =\n  let rec go k p = if p >= n then k else go (k + 1) (p lsl 1) in\n  go 0 1");
  check_silent "log-free rounding" "MSP004"
    (lint ~file:"lib/core/foo.ml" "let f eps = int_of_float (ceil (1.0 /. eps))")

(* ---------------------------------------------------------------- *)
(* MSP005: Obj/Marshal                                               *)
(* ---------------------------------------------------------------- *)

let test_msp005 () =
  check_fires "Obj.magic" "MSP005" (lint ~file:"lib/core/foo.ml" "let f x = Obj.magic x");
  check_fires "Marshal" "MSP005"
    (lint ~file:"test/foo.ml" "let f x = Marshal.to_string x []");
  check_fires "module alias" "MSP005" (lint ~file:"lib/core/foo.ml" "module M = Marshal");
  check_silent "clean module" "MSP005" (lint ~file:"lib/core/foo.ml" "let f x = x + 1")

(* ---------------------------------------------------------------- *)
(* MSP006: .mli presence                                             *)
(* ---------------------------------------------------------------- *)

let test_msp006 () =
  check_fires "lib module without mli" "MSP006" (lint_nomli ~file:"lib/core/foo.ml" "let x = 1");
  check_silent "mli present" "MSP006" (lint ~file:"lib/core/foo.ml" ~intf:"val x : int" "let x = 1");
  check_silent "binaries need no mli" "MSP006" (lint_nomli ~file:"bin/main.ml" "let x = 1");
  check_silent "tests need no mli" "MSP006" (lint_nomli ~file:"test/foo.ml" "let x = 1")

(* ---------------------------------------------------------------- *)
(* MSP007: raise contracts                                           *)
(* ---------------------------------------------------------------- *)

let test_msp007 () =
  let raising = "let find x = if x < 0 then invalid_arg \"neg\" else x" in
  check_fires "exported raising fn, no doc" "MSP007"
    (lint ~file:"lib/core/foo.ml" ~intf:"val find : int -> int" raising);
  check_silent "@raise documented" "MSP007"
    (lint ~file:"lib/core/foo.ml"
       ~intf:"val find : int -> int\n(** @raise Invalid_argument on negative input. *)" raising);
  check_silent "_exn suffix carries the contract" "MSP007"
    (lint ~file:"lib/core/foo.ml" ~intf:"val find_exn : int -> int"
       "let find_exn x = if x < 0 then invalid_arg \"neg\" else x");
  check_silent "unexported helper" "MSP007"
    (lint ~file:"lib/core/foo.ml" ~intf:"val other : int" raising);
  check_silent "raise Exit is local control flow" "MSP007"
    (lint ~file:"lib/core/foo.ml" ~intf:"val find : int array -> bool"
       "let find a = try Array.iter (fun x -> if x = 0 then raise Exit) a; false with Exit -> true");
  check_silent "raise under try is assumed caught" "MSP007"
    (lint ~file:"lib/core/foo.ml" ~intf:"val find : int -> int"
       "exception E\nlet find x = try if x < 0 then raise E else x with E -> 0")

(* ---------------------------------------------------------------- *)
(* MSP008: no Domain.spawn                                           *)
(* ---------------------------------------------------------------- *)

let test_msp008 () =
  check_fires "raw spawn in library code" "MSP008"
    (lint ~file:"lib/core/foo.ml"
       "let f () = Domain.join (Domain.spawn (fun () -> 1))");
  check_fires "qualified spawn" "MSP008"
    (lint ~file:"lib/core/foo.ml" "let f () = Stdlib.Domain.spawn (fun () -> ())");
  check_fires "spawn in bench code" "MSP008"
    (lint ~file:"bench/foo.ml" "let f () = Domain.spawn (fun () -> ())");
  check_fires "no file is a blessed home" "MSP008"
    (lint ~file:"lib/prelude/pool.ml" "let f () = Domain.spawn (fun () -> ())");
  check_silent "other Domain functions are fine" "MSP008"
    (lint ~file:"lib/prelude/foo.ml" "let f () = Domain.recommended_domain_count ()");
  check_silent "lint.allow escape" "MSP008"
    (lint ~file:"lib/core/foo.ml"
       "let f () = Domain.spawn (fun () -> ()) [@@lint.allow \"MSP008\"]")

(* ---------------------------------------------------------------- *)
(* MSP009: file I/O outside the durability layer                     *)
(* ---------------------------------------------------------------- *)

let test_msp009 () =
  check_fires "open_out in library code" "MSP009"
    (lint ~file:"lib/dynamic/foo.ml" "let f path = open_out path");
  check_fires "open_in_bin" "MSP009"
    (lint ~file:"lib/core/foo.ml" "let f path = open_in_bin path");
  check_fires "Unix.openfile" "MSP009"
    (lint ~file:"lib/dynamic/foo.ml"
       "let f path = Unix.openfile path [ Unix.O_WRONLY ] 0o644");
  check_silent "journal.ml is the blessed home" "MSP009"
    (lint ~file:"lib/prelude/journal.ml"
       "let f path = Unix.openfile path [ Unix.O_WRONLY ] 0o644");
  check_silent "graph_io.ml keeps its exemption" "MSP009"
    (lint ~file:"lib/graph/graph_io.ml" "let f path = open_in path");
  check_silent "bench code may do I/O" "MSP009"
    (lint ~file:"bench/foo.ml" "let f path = open_out path");
  check_silent "test code may do I/O" "MSP009"
    (lint ~file:"test/foo.ml" "let f path = open_out path");
  check_silent "bin code may do I/O" "MSP009"
    (lint ~file:"bin/main.ml" "let f path = open_out path");
  check_silent "Journal consumers are clean" "MSP009"
    (lint ~file:"lib/dynamic/foo.ml"
       "let f path = Journal.open_writer path")

(* ---------------------------------------------------------------- *)
(* MSP010: raw Bigarray unsafe access outside the blessed lanes      *)
(* ---------------------------------------------------------------- *)

let test_msp010 () =
  check_fires "unsafe_get in library code" "MSP010"
    (lint ~file:"lib/core/foo.ml" "let f a i = Bigarray.Array1.unsafe_get a i");
  check_fires "unsafe_set" "MSP010"
    (lint ~file:"lib/dynamic/foo.ml" "let f a i v = Bigarray.Array1.unsafe_set a i v");
  check_fires "unqualified Array1 (open Bigarray)" "MSP010"
    (lint ~file:"lib/core/foo.ml" "open Bigarray\nlet f a i = Array1.unsafe_get a i");
  check_fires "Array2" "MSP010"
    (lint ~file:"lib/core/foo.ml" "let f a i j = Bigarray.Array2.unsafe_get a i j");
  check_fires "test code is not exempt" "MSP010"
    (lint ~file:"test/foo.ml" "let f a i = Bigarray.Array1.unsafe_get a i");
  check_silent "bigvec.ml is a blessed lane" "MSP010"
    (lint ~file:"lib/prelude/bigvec.ml" "let f a i = Bigarray.Array1.unsafe_get a i");
  check_silent "graph.ml is a blessed lane" "MSP010"
    (lint ~file:"lib/graph/graph.ml" "let f a i = Bigarray.Array1.unsafe_get a i");
  check_silent "checked Array1.get is fine" "MSP010"
    (lint ~file:"lib/core/foo.ml" "let f a i = Bigarray.Array1.get a i");
  check_silent "Bigvec's own unsafe accessor states its contract" "MSP010"
    (lint ~file:"lib/core/foo.ml" "let f a i = Bigvec.unsafe_get a i");
  check_silent "heap Array.unsafe_get is out of scope" "MSP010"
    (lint ~file:"lib/core/foo.ml" "let f a i = Array.unsafe_get a i")

(* ---------------------------------------------------------------- *)
(* MSP011: raw socket / fd I/O outside the serve funnel              *)
(* ---------------------------------------------------------------- *)

let test_msp011 () =
  check_fires "Unix.socket in library code" "MSP011"
    (lint ~file:"lib/dynamic/foo.ml"
       "let f () = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0");
  check_fires "Unix.connect" "MSP011"
    (lint ~file:"lib/core/foo.ml" "let f fd a = Unix.connect fd a");
  check_fires "Unix.read" "MSP011"
    (lint ~file:"lib/dynamic/foo.ml" "let f fd b = Unix.read fd b 0 10");
  check_fires "Unix.select" "MSP011"
    (lint ~file:"lib/matching/foo.ml" "let f fd = Unix.select [ fd ] [] [] 1.0");
  check_fires "UnixLabels spelling" "MSP011"
    (lint ~file:"lib/core/foo.ml" "let f fd a = UnixLabels.bind fd ~addr:a");
  check_silent "lib/server owns the socket surface" "MSP011"
    (lint ~file:"lib/server/conn.ml" "let f fd b = Unix.read fd b 0 10");
  check_silent "journal.ml writes its own fd" "MSP011"
    (lint ~file:"lib/prelude/journal.ml"
       "let f fd s = Unix.write_substring fd s 0 (String.length s)");
  check_silent "graph_io.ml reads its own fd" "MSP011"
    (lint ~file:"lib/graph/graph_io.ml" "let f fd b = Unix.read fd b 0 10");
  check_silent "bench code may use sockets" "MSP011"
    (lint ~file:"bench/serve_faults.ml"
       "let f () = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0");
  check_silent "bin code may use sockets" "MSP011"
    (lint ~file:"bin/main.ml" "let f fd a = Unix.connect fd a");
  check_silent "test code may use sockets" "MSP011"
    (lint ~file:"test/foo.ml" "let f fd b = Unix.read fd b 0 10");
  check_silent "non-fd Unix calls are out of scope" "MSP011"
    (lint ~file:"lib/prelude/clock.ml" "let f () = Unix.gettimeofday ()")

(* ---------------------------------------------------------------- *)
(* suppression: [@lint.allow]                                        *)
(* ---------------------------------------------------------------- *)

let test_allow () =
  check_silent "binding-level [@@lint.allow]" "MSP002"
    (lint ~file:"lib/graph/foo.ml" "let f l = List.sort compare l [@@lint.allow \"MSP002\"]");
  check_silent "expression-level [@lint.allow]" "MSP002"
    (lint ~file:"lib/graph/foo.ml" "let f l = List.sort (compare [@lint.allow \"MSP002\"]) l");
  check_silent "floating [@@@lint.allow]" "MSP002"
    (lint ~file:"lib/graph/foo.ml" "[@@@lint.allow \"MSP002\"]\nlet f l = List.sort compare l");
  check_silent "wildcard" "MSP002"
    (lint ~file:"lib/graph/foo.ml" "let f l = List.sort compare l [@@lint.allow \"*\"]");
  (* an allow for a different code must not leak *)
  check_fires "allow is code-specific" "MSP002"
    (lint ~file:"lib/graph/foo.ml" "let f l = List.sort compare l [@@lint.allow \"MSP004\"]");
  (* ...and an allow span must not cover siblings *)
  let two =
    lint ~file:"lib/graph/foo.ml"
      "let f l = List.sort compare l [@@lint.allow \"MSP002\"]\nlet g l = List.sort compare l"
  in
  Alcotest.(check (list string)) "sibling still caught" [ "MSP002" ] (codes two)

(* ---------------------------------------------------------------- *)
(* MSP007: match-with-exception is recognised as a handler           *)
(* ---------------------------------------------------------------- *)

let test_msp007_match_exception () =
  (* a raise inside the scrutinee of a [match ... with exception] is
     routed into the exception arms, not out of the function *)
  check_silent "raise in scrutinee of match-with-exception" "MSP007"
    (lint ~file:"lib/core/foo.ml" ~intf:"val find : int -> int"
       "let find x =\n\
        \  match (if x < 0 then failwith \"neg\" else x) with\n\
        \  | v -> v\n\
        \  | exception Failure _ -> 0");
  (* ...but a raise in a result arm still escapes *)
  check_fires "raise in arm of match-with-exception" "MSP007"
    (lint ~file:"lib/core/foo.ml" ~intf:"val find : (unit -> int) -> int"
       "let find f =\n\
        \  match f () with\n\
        \  | exception Failure _ -> 0\n\
        \  | v -> if v = 0 then failwith \"zero\" else v");
  (* a plain match (no exception arm) does not swallow scrutinee raises *)
  check_fires "plain match is not a handler" "MSP007"
    (lint ~file:"lib/core/foo.ml" ~intf:"val find : int -> int"
       "let find x = match (if x < 0 then failwith \"neg\" else x) with v -> v")

(* ---------------------------------------------------------------- *)
(* typed rules: MSP012/13/14 over type-checked fixtures              *)
(* ---------------------------------------------------------------- *)

(* Type-check a fixture with the in-memory frontend, run the three typed
   rules, and apply the same [@lint.allow] suppression the driver does. *)
let typed_lint ~file source =
  match Lint_typed.typecheck_impl ~file source with
  | Error e -> Alcotest.failf "fixture %s does not type-check: %s" file e
  | Ok u -> Lint_engine.suppress [ u ] (Lint_typed_rules.run [ u ])

(* A global written under [Server.run] and outside it; [extra] is
   appended to the reactor's binding. *)
let reactor_fixture ?(extra = "") () =
  "let pending = ref 0\n\
   let enqueue n = pending := !pending + n\n\
   module Server = struct\n\
   \  let run () = pending := 0" ^ extra
  ^ "\nend\n\
     let tick () = enqueue 1"

let test_msp012 () =
  check_fires "global written inside and outside the reactor" "MSP012"
    (typed_lint ~file:"lib/server/fix.ml" (reactor_fixture ()));
  check_silent "[@lint.allow] suppresses a typed finding" "MSP012"
    (typed_lint ~file:"lib/server/fix.ml"
       (reactor_fixture ~extra:" [@@lint.allow \"MSP012\"]" ()));
  check_silent "a global only the reactor writes" "MSP012"
    (typed_lint ~file:"lib/server/fix.ml"
       "let pending = ref 0\n\
        module Server = struct\n\
        \  let run () = pending := !pending + 1\n\
        end");
  check_silent "Atomic is the blessed shared-state primitive" "MSP012"
    (typed_lint ~file:"lib/server/fix.ml"
       "let pending = Atomic.make 0\n\
        let enqueue () = Atomic.incr pending\n\
        module Server = struct\n\
        \  let run () = Atomic.set pending 0\n\
        end\n\
        let tick () = enqueue ()")

let test_msp013 () =
  check_fires "tuple allocated per element in a hot map" "MSP013"
    (typed_lint ~file:"lib/core/fix.ml"
       "let pairs xs = List.map (fun x -> (x, x)) xs [@@hot]");
  check_silent "same code without [@@hot] is out of scope" "MSP013"
    (typed_lint ~file:"lib/core/fix.ml"
       "let pairs xs = List.map (fun x -> (x, x)) xs");
  check_silent "allocation-free hot loop" "MSP013"
    (typed_lint ~file:"lib/core/fix.ml"
       "let sum a =\n\
        \  let s = ref 0 in\n\
        \  for i = 0 to Array.length a - 1 do\n\
        \    s := !s + Array.unsafe_get a i\n\
        \  done;\n\
        \  !s\n\
        [@@hot]");
  (* regression: a curried local helper is ONE closure, not a nest *)
  check_silent "curried local rec helper at depth 0" "MSP013"
    (typed_lint ~file:"lib/core/fix.ml"
       "let tri n =\n\
        \  let rec go s i = if i = 0 then s else go (s + i) (i - 1) in\n\
        \  go 0 n\n\
        [@@hot]");
  check_silent "optional-argument chain is the entry, not an allocation"
    "MSP013"
    (typed_lint ~file:"lib/core/fix.ml"
       "let scale ?(k = 2) a =\n\
        \  for i = 0 to Array.length a - 1 do\n\
        \    Array.unsafe_set a i (k * Array.unsafe_get a i)\n\
        \  done\n\
        [@@hot]");
  check_fires "ref cell allocated inside a hot loop" "MSP013"
    (typed_lint ~file:"lib/core/fix.ml"
       "let scan a =\n\
        \  let t = ref 0 in\n\
        \  for i = 0 to Array.length a - 1 do\n\
        \    let c = ref a.(i) in\n\
        \    t := !t + !c\n\
        \  done;\n\
        \  !t\n\
        [@@hot]");
  check_fires "Printf formats (and allocates) anywhere in a hot fn" "MSP013"
    (typed_lint ~file:"lib/core/fix.ml"
       "let trace x = Printf.printf \"%d\\n\" x [@@hot]");
  check_silent "depth-0 result construction is fine" "MSP013"
    (typed_lint ~file:"lib/core/fix.ml"
       "let mk n = Bytes.create n [@@hot]");
  check_silent "[@lint.allow] suppresses a hot-alloc finding" "MSP013"
    (typed_lint ~file:"lib/core/fix.ml"
       "let pairs xs = List.map (fun x -> (x, x)) xs\n\
        [@@hot] [@@lint.allow \"MSP013\"]")

(* Minimal Graph surface: [norm_path] reduces this local stub to the
   [Graph.*] names MSP014 matches. *)
let graph_stub =
  "module Graph = struct\n\
  \  let iter_neighbors_uncounted _g _v _f = ()\n\
  \  let neighbors_into_uncounted _g _v ~out:_ = 0\n\
  \  let add_probes _g _n = ()\n\
   end\n"

let test_msp014 () =
  check_fires "uncharged uncounted adjacency access" "MSP014"
    (typed_lint ~file:"lib/distsim/fix.ml"
       (graph_stub
      ^ "let peek g v = Graph.iter_neighbors_uncounted g v (fun _ -> ())"));
  check_silent "same-function charge dominates the access" "MSP014"
    (typed_lint ~file:"lib/distsim/fix.ml"
       (graph_stub
      ^ "let scan g v =\n\
         \  Graph.add_probes g 1;\n\
         \  Graph.iter_neighbors_uncounted g v (fun _ -> ())"));
  check_silent "charged-on-entry: every caller charges first" "MSP014"
    (typed_lint ~file:"lib/distsim/fix.ml"
       (graph_stub
      ^ "let inner g v = Graph.iter_neighbors_uncounted g v (fun _ -> ())\n\
         let outer g v =\n\
         \  Graph.add_probes g 1;\n\
         \  inner g v"));
  check_fires "one uncharged caller demotes the callee" "MSP014"
    (typed_lint ~file:"lib/distsim/fix.ml"
       (graph_stub
      ^ "let inner g v = Graph.iter_neighbors_uncounted g v (fun _ -> ())\n\
         let charged g v =\n\
         \  Graph.add_probes g 1;\n\
         \  inner g v\n\
         let uncharged g v = inner g v"));
  check_silent "network.ml is the substrate, not protocol code" "MSP014"
    (typed_lint ~file:"lib/distsim/network.ml"
       (graph_stub
      ^ "let peek g v = Graph.iter_neighbors_uncounted g v (fun _ -> ())"));
  check_silent "outside the CONGEST scope" "MSP014"
    (typed_lint ~file:"lib/matching/fix.ml"
       (graph_stub
      ^ "let peek g v = Graph.iter_neighbors_uncounted g v (fun _ -> ())"));
  check_silent "[@lint.allow] suppresses a probe finding" "MSP014"
    (typed_lint ~file:"lib/distsim/fix.ml"
       (graph_stub
      ^ "let peek g v = Graph.iter_neighbors_uncounted g v (fun _ -> ())\n\
         [@@lint.allow \"MSP014\"]"));
  (* probe-dirs extend the same discipline to the oracle layer *)
  check_fires "probe-dir: uncharged oracle accessor" "MSP014"
    (typed_lint ~file:"lib/lca/fix.ml"
       (graph_stub
      ^ "let gather g v ~out = Graph.neighbors_into_uncounted g v ~out"));
  check_silent "probe-dir: charge in the same function" "MSP014"
    (typed_lint ~file:"lib/lca/fix.ml"
       (graph_stub
      ^ "let gather g v ~out =\n\
         \  let d = Graph.neighbors_into_uncounted g v ~out in\n\
         \  Graph.add_probes g d;\n\
         \  d"));
  check_fires "probe-dir: bulk accessor is uncounted too" "MSP014"
    (typed_lint ~file:"lib/lca/fix.ml"
       (graph_stub
      ^ "let peek g v = Graph.iter_neighbors_uncounted g v (fun _ -> ())"))

(* ---------------------------------------------------------------- *)
(* engine plumbing                                                   *)
(* ---------------------------------------------------------------- *)

let test_plumbing () =
  (* parse errors surface as MSP000, never as exceptions *)
  check_fires "syntax error" "MSP000"
    (Lint_engine.lint_impl ~file:"lib/core/foo.ml" ~source:"let let let" ~mli:(Some ""));
  (* findings carry 1-based lines and the rule's location *)
  (match lint ~file:"lib/graph/foo.ml" "let a = 1\nlet f l = List.sort compare l" with
  | [ f ] ->
      Alcotest.(check string) "code" "MSP002" f.Lint_types.code;
      Alcotest.(check int) "line" 2 f.Lint_types.line;
      Alcotest.(check bool) "column within line" true (f.Lint_types.col > 0)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  (* scopes: directory prefixes match whole path segments, and an allow
     entry switches its rule off *)
  Alcotest.(check bool) "hot" true (Lint_config.in_hot_dir "lib/graph/foo.ml");
  Alcotest.(check bool) "segment-aware prefix" false
    (Lint_config.in_hot_dir "lib/graphics/foo.ml");
  Alcotest.(check bool) "allow disables" false
    (Lint_config.rule_enabled ~code:"MSP001" ~file:"lib/prelude/rng.ml")

let () =
  Alcotest.run "msparlint"
    [
      ( "rules",
        [
          Alcotest.test_case "MSP001 random" `Quick test_msp001;
          Alcotest.test_case "MSP002 poly compare" `Quick test_msp002;
          Alcotest.test_case "MSP003 congest" `Quick test_msp003;
          Alcotest.test_case "MSP004 float log" `Quick test_msp004;
          Alcotest.test_case "MSP005 obj/marshal" `Quick test_msp005;
          Alcotest.test_case "MSP006 mli" `Quick test_msp006;
          Alcotest.test_case "MSP007 raise contract" `Quick test_msp007;
          Alcotest.test_case "MSP008 domain spawn" `Quick test_msp008;
          Alcotest.test_case "MSP009 file io" `Quick test_msp009;
          Alcotest.test_case "MSP010 bigarray unsafe" `Quick test_msp010;
          Alcotest.test_case "MSP011 socket io" `Quick test_msp011;
          Alcotest.test_case "MSP007 match-with-exception" `Quick
            test_msp007_match_exception;
        ] );
      ( "typed rules",
        [
          Alcotest.test_case "MSP012 domain race" `Quick test_msp012;
          Alcotest.test_case "MSP013 hot alloc" `Quick test_msp013;
          Alcotest.test_case "MSP014 probe accounting" `Quick test_msp014;
        ] );
      ("suppression", [ Alcotest.test_case "lint.allow" `Quick test_allow ]);
      ("engine", [ Alcotest.test_case "plumbing" `Quick test_plumbing ]);
    ]
