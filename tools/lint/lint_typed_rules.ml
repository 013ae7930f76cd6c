open Typedtree
module T = Lint_types

type analysis = { graph : Lint_callgraph.t }

let prepare units = { graph = Lint_callgraph.build units }

(* ------------------------------------------------------------------ *)
(* attribute helpers                                                  *)
(* ------------------------------------------------------------------ *)

let has_attr name (attrs : Parsetree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ------------------------------------------------------------------ *)
(* write primitives and their targets                                 *)
(* ------------------------------------------------------------------ *)

type arg_spec = Pos of int | Lab of string

(* Which argument of a known mutator is the mutated value.  [Atomic.*] is
   deliberately absent: atomic writes are the sanctioned cross-domain
   mechanism. *)
let write_spec = function
  | "Stdlib.:=" | "Stdlib.incr" | "Stdlib.decr"
  | "Array.set" | "Array.unsafe_set" | "Array.fill"
  | "Bytes.set" | "Bytes.unsafe_set" | "Bytes.fill"
  | "Bigvec.set" | "Bigvec.unsafe_set" | "Bigvec.fill"
  | "Array1.set" | "Array1.unsafe_set" | "Array1.fill"
  | "Hashtbl.add" | "Hashtbl.replace" | "Hashtbl.remove" | "Hashtbl.reset"
  | "Hashtbl.clear"
  | "Buffer.add_char" | "Buffer.add_string" | "Buffer.add_bytes"
  | "Buffer.add_subbytes" | "Buffer.add_buffer" | "Buffer.clear"
  | "Buffer.reset" | "Buffer.truncate"
  | "Edgebuf.push" | "Edgebuf.push_unchecked" | "Edgebuf.ensure_capacity"
  | "Queue.pop" | "Queue.take" | "Queue.clear"
  | "Stack.pop" | "Stack.clear" ->
      Some (Pos 0)
  | "Queue.add" | "Queue.push" | "Stack.push" -> Some (Pos 1)
  | "Array.blit" | "Bytes.blit" | "Bytes.blit_string" | "Buffer.blit" ->
      Some (Pos 2)
  | "Bigvec.blit" -> Some (Lab "dst")
  | _ -> None

(* Accessors we chase through when resolving a write target back to the
   value that owns the storage: [aux.(i) <- x] mutates [aux], and
   [!r.field <- x] mutates the cell behind [r]. *)
let getter = function
  | "Stdlib.!"
  | "Array.get" | "Array.unsafe_get"
  | "Bytes.get" | "Bytes.unsafe_get"
  | "Bigvec.get" | "Bigvec.unsafe_get"
  | "Array1.get" | "Array1.unsafe_get"
  | "Hashtbl.find" | "Hashtbl.find_opt" ->
      true
  | _ -> false

type target = Local of Ident.t | Named of string | Unknown

let rec target_of (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Local id
  | Texp_ident (p, _, _) -> Named (Lint_typed.norm_path p)
  | Texp_field (e, _, _) -> target_of e
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
    when getter (Lint_typed.norm_path p) -> (
      match
        List.find_opt (fun (l, a) -> l = Asttypes.Nolabel && a <> None) args
      with
      | Some (_, Some a) -> target_of a
      | _ -> Unknown)
  | _ -> Unknown

let target_name = function
  | Local id -> Ident.name id
  | Named n -> n
  | Unknown -> "?"

type write = { wtarget : target; wloc : Location.t; wwhat : string }

let nth_pos_arg args i =
  let rec go i = function
    | [] -> None
    | (Asttypes.Nolabel, Some a) :: rest -> if i = 0 then Some a else go (i - 1) rest
    | _ :: rest -> go i rest
  in
  go i args

let lab_arg args l =
  List.find_map
    (function Asttypes.Labelled l', Some a when l' = l -> Some a | _ -> None)
    args

let write_of_expr (e : expression) =
  match e.exp_desc with
  | Texp_setfield (recv, _, ld, _) ->
      let t = target_of recv in
      Some
        {
          wtarget = t;
          wloc = e.exp_loc;
          wwhat = Printf.sprintf "mutable field %s of %s" ld.lbl_name (target_name t);
        }
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
      let n = Lint_typed.norm_path p in
      match write_spec n with
      | None -> None
      | Some spec -> (
          let arg =
            match spec with Pos i -> nth_pos_arg args i | Lab l -> lab_arg args l
          in
          match arg with
          | None -> None
          | Some a ->
              let t = target_of a in
              Some
                {
                  wtarget = t;
                  wloc = e.exp_loc;
                  wwhat = Printf.sprintf "%s on %s" n (target_name t);
                }))
  | _ -> None

let collect_writes e =
  let acc = ref [] in
  let expr_it (self : Tast_iterator.iterator) e' =
    (match write_of_expr e' with Some w -> acc := w :: !acc | None -> ());
    Tast_iterator.default_iterator.expr self e'
  in
  let it = { Tast_iterator.default_iterator with expr = expr_it } in
  it.expr it e;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* MSP012: reactor sharing                                            *)
(* ------------------------------------------------------------------ *)

(* The reactor context: a module-level global written both by a function
   reachable from [Server.run] and by one that is not is shared between
   the reactor and another context. *)
let msp012 a =
  let g = a.graph in
  let findings = ref [] in
  let seen = Hashtbl.create 32 in
  let emit ~file ~loc msg =
    let k = (file, loc.Location.loc_start.Lexing.pos_cnum) in
    if (not (Hashtbl.mem seen k)) && Lint_config.rule_enabled ~code:"MSP012" ~file
    then begin
      Hashtbl.replace seen k ();
      findings := T.of_location ~file ~code:"MSP012" ~message:msg loc :: !findings
    end
  in
  let rreach = Lint_callgraph.reachable g [ "Server.run" ] in
  if Hashtbl.length rreach > 0 then begin
    let node_globals (nd : Lint_callgraph.node) =
      List.filter_map
        (fun w ->
          match w.wtarget with
          | Named n -> Some (n, w)
          | Local id ->
              Option.map
                (fun k -> (k, w))
                (Lint_callgraph.resolve_ident g ~file:nd.file id)
          | Unknown -> None)
        (collect_writes nd.body)
    in
    let writers = Hashtbl.create 32 in
    Lint_callgraph.iter_nodes g (fun nd ->
        List.iter
          (fun (gname, w) ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt writers gname) in
            Hashtbl.replace writers gname
              ((Hashtbl.mem rreach nd.key, nd, w) :: prev))
          (node_globals nd));
    Hashtbl.iter
      (fun gname ws ->
        let ins = List.filter (fun (r, _, _) -> r) ws in
        let outs = List.filter (fun (r, _, _) -> not r) ws in
        match (ins, outs) with
        | _ :: _, (_, (out_nd : Lint_callgraph.node), _) :: _ ->
            List.iter
              (fun (_, (nd : Lint_callgraph.node), w) ->
                emit ~file:nd.file ~loc:w.wloc
                  (Printf.sprintf
                     "%s is written both inside the Server.run reactor (in %s) \
                      and outside it (in %s); the contexts race — make it \
                      Atomic or route all writes through the reactor"
                     gname nd.key out_nd.key))
              ins
        | _ -> ())
      writers
  end;
  List.sort T.compare_finding !findings

(* ------------------------------------------------------------------ *)
(* MSP013: hot-path allocation                                        *)
(* ------------------------------------------------------------------ *)

(* Calls that allocate wherever they appear in a hot function. *)
let alloc_call_anywhere n =
  has_prefix ~prefix:"Printf." n
  || has_prefix ~prefix:"Format." n
  || has_prefix ~prefix:"Fmt." n
  || n = "Stdlib.^" || n = "Stdlib.@"

(* Calls that allocate per element when they appear inside a loop or a
   nested closure (depth >= 1); at depth 0 they build the function's
   result and are fine. *)
let alloc_call_per_element = function
  | "Stdlib.ref"
  | "Buffer.contents" | "Buffer.to_bytes" | "Buffer.create"
  | "Bytes.create" | "Bytes.sub" | "Bytes.sub_string" | "Bytes.to_string"
  | "Bytes.of_string"
  | "String.sub" | "String.concat" | "String.make" | "String.init"
  | "Array.make" | "Array.init" | "Array.copy" | "Array.append"
  | "Array.of_list" | "Array.to_list"
  | "List.append" | "List.concat" | "List.map" | "List.init" | "List.rev"
  | "Hashtbl.create" ->
      true
  | _ -> false

(* A curried [fun a ?(b = d) c -> body] is a chain of nested
   [Texp_function]s in the typedtree — with each optional-argument
   default bound by a [Texp_let] between two links — but it allocates at
   most ONE closure.  [peel_chain] splits such a chain into its
   innermost bodies plus the side expressions (optional defaults, match
   guards) that run when the chain is entered, so the walker can treat
   the whole chain as a single function boundary instead of flagging
   every inner link as a fresh per-element closure. *)
let rec chain_continues e =
  match e.exp_desc with
  | Texp_function _ -> true
  | Texp_let (_, _, b) -> chain_continues b
  | _ -> false

let rec peel_chain e (sides, bodies) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.fold_left
        (fun (sides, bodies) c ->
          let sides =
            match c.c_guard with Some g -> g :: sides | None -> sides
          in
          peel_chain c.c_rhs (sides, bodies))
        (sides, bodies) cases
  | Texp_let (_, vbs, b) when chain_continues b ->
      peel_chain b
        (List.fold_left (fun s vb -> vb.vb_expr :: s) sides vbs, bodies)
  | _ -> (sides, e :: bodies)

let msp013 a =
  let findings = ref [] in
  Lint_callgraph.iter_nodes a.graph (fun nd ->
      if
        has_attr "hot" nd.attrs
        && Lint_config.rule_enabled ~code:"MSP013" ~file:nd.file
      then begin
        let emit loc msg =
          findings :=
            T.of_location ~file:nd.file ~code:"MSP013"
              ~message:(Printf.sprintf "[@@hot] %s: %s" nd.key msg)
              loc
            :: !findings
        in
        let depth = ref 0 in
        let flag loc msg = if !depth >= 1 then emit loc msg in
        let expr_it (self : Tast_iterator.iterator) e =
          match e.exp_desc with
          | Texp_function _ ->
              flag e.exp_loc "closure allocated per element";
              (* one closure per curried chain: walk the chain's bodies
                 (and optional-default sides, which also run per entry)
                 one level deeper without re-flagging inner links *)
              let sides, bodies = peel_chain e ([], []) in
              incr depth;
              List.iter (self.expr self) sides;
              List.iter (self.expr self) bodies;
              decr depth
          | Texp_for (_, _, lo, hi, _, body) ->
              self.expr self lo;
              self.expr self hi;
              incr depth;
              self.expr self body;
              decr depth
          | Texp_while (cond, body) ->
              self.expr self cond;
              incr depth;
              self.expr self body;
              decr depth
          | _ ->
              (match e.exp_desc with
              | Texp_tuple _ -> flag e.exp_loc "tuple allocated per element"
              | Texp_construct (_, cd, _ :: _) ->
                  flag e.exp_loc
                    (Printf.sprintf "%s block allocated per element" cd.cstr_name)
              | Texp_record _ -> flag e.exp_loc "record allocated per element"
              | Texp_array (_ :: _) -> flag e.exp_loc "array literal allocated per element"
              | Texp_variant (l, Some _) ->
                  flag e.exp_loc
                    (Printf.sprintf "polymorphic variant `%s allocated per element" l)
              | Texp_lazy _ -> flag e.exp_loc "lazy block allocated per element"
              | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
                  let n = Lint_typed.norm_path p in
                  if alloc_call_anywhere n then
                    emit e.exp_loc (Printf.sprintf "%s allocates (and formats) on the hot path" n)
                  else if alloc_call_per_element n then
                    flag e.exp_loc (Printf.sprintf "%s allocates per element" n)
              | _ -> ());
              Tast_iterator.default_iterator.expr self e
        in
        let it = { Tast_iterator.default_iterator with expr = expr_it } in
        (* the entry chain is the function's own parameter list: its
           bodies and optional defaults run once per call, depth 0 *)
        let sides, bodies = peel_chain nd.body ([], []) in
        List.iter (fun e -> it.expr it e) sides;
        List.iter (fun e -> it.expr it e) bodies
      end);
  List.sort T.compare_finding !findings

(* ------------------------------------------------------------------ *)
(* MSP014: probe accounting                                           *)
(* ------------------------------------------------------------------ *)

let uncounted_accessors =
  [
    "Graph.neighbor_uncounted";
    "Graph.iter_neighbors_uncounted";
    "Graph.append_neighbors_uncounted";
    "Graph.neighbors_into_uncounted";
    "Graph.edges";
    "Graph.iter_edges";
  ]

let charge_fn = "Graph.add_probes"

let msp014 a =
  let g = a.graph in
  (* per node: uncounted-accessor occurrences and whether it charges *)
  let occs = Hashtbl.create 64 in
  let charges = Hashtbl.create 64 in
  Lint_callgraph.iter_nodes g (fun nd ->
      let us = ref [] in
      let ch = ref false in
      let expr_it (self : Tast_iterator.iterator) e =
        (match e.exp_desc with
        | Texp_ident (p, _, _) ->
            let n = Lint_typed.norm_path p in
            if List.mem n uncounted_accessors then us := (n, e.exp_loc) :: !us;
            if n = charge_fn then ch := true
        | _ -> ());
        Tast_iterator.default_iterator.expr self e
      in
      let it = { Tast_iterator.default_iterator with expr = expr_it } in
      it.expr it nd.body;
      Hashtbl.replace occs nd.key (List.rev !us);
      Hashtbl.replace charges nd.key !ch);
  (* greatest fixpoint: a function is charged-on-entry when every caller
     charges (directly or on entry); entry points with no callers are not *)
  let charged = Hashtbl.create 64 in
  Lint_callgraph.iter_nodes g (fun nd ->
      Hashtbl.replace charged nd.key
        (Hashtbl.find charges nd.key || Lint_callgraph.callers g nd.key <> []));
  let changed = ref true in
  while !changed do
    changed := false;
    Lint_callgraph.iter_nodes g (fun nd ->
        if Hashtbl.find charged nd.key && not (Hashtbl.find charges nd.key) then begin
          let cs = Lint_callgraph.callers g nd.key in
          if not (cs <> [] && List.for_all (fun c -> Hashtbl.find charged c) cs)
          then begin
            Hashtbl.replace charged nd.key false;
            changed := true
          end
        end)
  done;
  let findings = ref [] in
  Lint_callgraph.iter_nodes g (fun nd ->
      if
        (Lint_config.in_congest_scope nd.file || Lint_config.in_probe_scope nd.file)
        && Lint_config.rule_enabled ~code:"MSP014" ~file:nd.file
        && not (Hashtbl.find charged nd.key)
      then
        List.iter
          (fun (n, loc) ->
            findings :=
              T.of_location ~file:nd.file ~code:"MSP014"
                ~message:
                  (Printf.sprintf
                     "uncounted adjacency access %s in %s is not dominated by \
                      a probe charge: the function never calls %s and not all \
                      of its callers charge before calling"
                     n nd.key charge_fn)
                loc
              :: !findings)
          (Hashtbl.find occs nd.key));
  List.sort T.compare_finding !findings

let run units =
  let a = prepare units in
  List.sort T.compare_finding (msp012 a @ msp013 a @ msp014 a)
