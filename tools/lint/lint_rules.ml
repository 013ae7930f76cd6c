(* The msparlint rule set MSP001–MSP011.

   Each rule is grounded in a paper invariant or a past regression (see
   doc/LINTS.md for the catalogue):

   MSP001  seeded determinism   — no Stdlib.Random outside lib/prelude/rng.ml
   MSP002  hot-path monomorphy  — no polymorphic compare/min/max/hash in the
                                  hot directories (the PR 1 packed-CSR bug)
   MSP003  CONGEST fidelity     — distsim protocols learn about remote
                                  vertices only through messages (Thm 3.2/3.3
                                  accounting), approximated as a forbidden
                                  adjacency-accessor list
   MSP004  integer budgets      — no float log/** feeding int rounding (the
                                  PR 2 ceil_log2 misrounding bug)
   MSP005  no unsafe casts      — Obj/Marshal are banned outright
   MSP006  interface discipline — every lib/ module has a .mli
   MSP007  raise contracts      — exported raising functions are _exn-named
                                  or carry @raise in their .mli doc
   MSP008  one domain           — no Domain.spawn: every computation runs
                                  on the calling domain (DESIGN.md §5)
   MSP009  durability funnel    — raw file I/O (open_out / open_in /
                                  Unix.openfile) in lib/ only inside the
                                  journal (lib/prelude/journal.ml) and
                                  Graph_io, so framing/CRC/fsync decisions
                                  stay in one reviewable place
   MSP010  off-heap bounds      — raw Bigarray unsafe_get/unsafe_set only
                                  in lib/prelude (the Bigvec wrapper) and
                                  lib/graph/graph.ml, where every index is
                                  derived from a validated offsets lane;
                                  unlike a heap array an out-of-bounds
                                  Bigarray access is a silent wild read
   MSP011  socket funnel        — raw Unix socket / file-descriptor I/O
                                  (socket, bind, listen, accept, connect,
                                  read, write, select, ...) in lib/ only
                                  inside lib/server (the reactor and its
                                  client), the journal, and Graph_io;
                                  everywhere else byte-level I/O bypasses
                                  the frame/CRC/backpressure discipline

   The rules walk each unit's Typedtree, so an identifier is matched by the
   path the compiler resolved it to ({!Lint_typed.norm_path}), not by its
   spelling: a bare [int] after [open Random] and a fully qualified
   [Mspar_graph.Graph.has_edge] are both seen, and a local binding that
   happens to be called [compare] is not Stdlib's.  The rules are still
   approximations of the invariants above; [@lint.allow "MSPxxx"] exists
   for the cases an approximation gets wrong. *)

open Typedtree

let contains_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
  nl = 0 || go 0

let doc_mentions_raise (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      match a.attr_name.txt with
      | "ocaml.doc" | "doc" -> (
          match a.attr_payload with
          | PStr
              [
                {
                  pstr_desc =
                    Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                  _;
                };
              ] ->
              contains_substring ~needle:"@raise" s
          | _ -> false)
      | _ -> false)
    attrs

(* The sibling .mli is parsed, not type-checked: MSP007 needs only its
   value names and the doc comments the parser attaches to them.  Maps
   each exported value to whether its doc mentions @raise; [None] when
   the .mli does not parse (the compiler reports that). *)
let mli_exports ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match Parse.interface lexbuf with
  | exception _ -> None
  | sg ->
      let exported = Hashtbl.create 32 in
      let open Ast_iterator in
      let signature_item it (si : Parsetree.signature_item) =
        (match si.psig_desc with
        | Psig_value vd ->
            Hashtbl.replace exported vd.pval_name.txt (doc_mentions_raise vd.pval_attributes)
        | _ -> ());
        default_iterator.signature_item it si
      in
      let it = { default_iterator with signature_item } in
      it.signature it sg;
      Some exported

type ctx = {
  file : string;
  hot : bool;
  congest : bool;
  in_lib : bool;
  mli : (string, bool) Hashtbl.t option;
  mutable acc : Lint_types.finding list;
}

let add ctx ~code ~loc message =
  if Lint_config.rule_enabled ~code ~file:ctx.file then
    ctx.acc <- Lint_types.of_location ~file:ctx.file ~code ~message loc :: ctx.acc

(* ---------------------------------------------------------------- *)
(* identifier classification                                        *)
(* ---------------------------------------------------------------- *)

(* The Stdlib module a resolved path goes through: [Some "Random"] for
   both the module [Stdlib.Random] and the value
   [Stdlib.Random.State.make]. *)
let rec stdlib_module = function
  | Path.Pdot (Pident id, m) when String.equal (Ident.name id) "Stdlib" -> Some m
  | Pdot (p, _) -> stdlib_module p
  | _ -> None

let is_poly_compare p =
  match p with
  | "Stdlib.compare" | "Stdlib.min" | "Stdlib.max" | "Hashtbl.hash" -> true
  | _ -> false

let is_file_io p =
  match p with
  | "Stdlib.open_out" | "Stdlib.open_out_bin" | "Stdlib.open_out_gen" | "Stdlib.open_in"
  | "Stdlib.open_in_bin" | "Stdlib.open_in_gen" | "Unix.openfile" | "UnixLabels.openfile" ->
      true
  | _ -> false

(* Raw Unix socket / file-descriptor I/O: the syscalls through which
   bytes enter or leave the process outside the durability funnel.
   [Unix.openfile] is MSP009's business; this list is the socket surface
   plus the read/write/select family, which is only meaningful on an fd
   someone already opened raw. *)
let is_socket_io p =
  match String.split_on_char '.' p with
  | [ ("Unix" | "UnixLabels"); f ] -> (
      match f with
      | "socket" | "bind" | "listen" | "accept" | "connect" | "read"
      | "write" | "write_substring" | "single_write"
      | "single_write_substring" | "recv" | "send" | "send_substring"
      | "recvfrom" | "sendto" | "select" | "pipe" | "socketpair"
      | "shutdown" | "setsockopt" | "getsockopt" ->
          true
      | _ -> false)
  | _ -> false

(* Raw Bigarray unsafe accessors.  [Bigvec.unsafe_get] is deliberately not
   matched: the wrapper is the sanctioned surface and states its
   precondition. *)
let is_bigarray_unsafe p =
  match String.split_on_char '.' p with
  | [ ("Array1" | "Array2" | "Array3"); ("unsafe_get" | "unsafe_set") ] -> true
  | _ -> false

let check_module ctx path loc =
  match stdlib_module path with
  | Some "Random" ->
      add ctx ~code:"MSP001" ~loc "module Random (seeded determinism: use Mspar_prelude.Rng)"
  | Some (("Obj" | "Marshal") as m) ->
      add ctx ~code:"MSP005" ~loc (Printf.sprintf "module %s is forbidden" m)
  | _ -> ()

let check_ident ctx path loc =
  let p = Lint_typed.norm_path path in
  (match stdlib_module path with
  | Some "Random" ->
      add ctx ~code:"MSP001" ~loc
        (Printf.sprintf
           "%s: Stdlib.Random breaks seeded determinism; thread a Mspar_prelude.Rng.t instead" p)
  | Some ("Obj" | "Marshal") ->
      add ctx ~code:"MSP005" ~loc (Printf.sprintf "%s: Obj/Marshal are forbidden" p)
  | _ -> ());
  (if ctx.hot && is_poly_compare p then
     let base =
       match String.rindex_opt p '.' with
       | Some i -> String.sub p (i + 1) (String.length p - i - 1)
       | None -> p
     in
     let hint =
       if String.equal base "hash" then "hash a concrete key representation instead"
       else Printf.sprintf "use Int.%s / Float.%s or an explicit comparator" base base
     in
     add ctx ~code:"MSP002" ~loc
       (Printf.sprintf "polymorphic %s in a hot-path directory; %s" p hint));
  if String.equal p "Domain.spawn" then
    add ctx ~code:"MSP008" ~loc
      (Printf.sprintf
         "%s: every computation in the tree runs on the calling domain (DESIGN.md §5); a \
          deliberate spawn takes an explanatory [@@lint.allow \"MSP008\"]"
         p);
  if ctx.in_lib && is_file_io p then
    add ctx ~code:"MSP009" ~loc
      (Printf.sprintf
         "%s: raw file I/O in lib/ is reserved for the durability layer (lib/prelude/journal.ml) \
          and Graph_io; route bytes through Mspar_prelude.Journal so framing, CRC and fsync \
          policy stay in one place"
         p);
  if ctx.in_lib && is_socket_io p then
    add ctx ~code:"MSP011" ~loc
      (Printf.sprintf
         "%s: raw Unix socket/fd I/O in lib/ is reserved for lib/server, the journal, and \
          Graph_io; anywhere else it bypasses the frame + CRC + backpressure discipline — go \
          through Mspar_server or Mspar_prelude.Journal"
         p);
  if is_bigarray_unsafe p then
    add ctx ~code:"MSP010" ~loc
      (Printf.sprintf
         "%s: raw Bigarray unsafe access outside the blessed lanes; an out-of-bounds index here \
          is a silent wild read, not an exception — go through Mspar_prelude.Bigvec, or keep the \
          index discipline inside lib/graph/graph.ml"
         p);
  if ctx.congest && List.exists (String.equal p) Lint_config.congest_forbidden then
    add ctx ~code:"MSP003" ~loc
      (Printf.sprintf
         "%s: CONGEST protocols may only learn about remote vertices through Network messages \
          (Thm 3.2/3.3 accounting); route this through Network or annotate protocol-local reads"
         p)

let ident_name f =
  match f.exp_desc with Texp_ident (path, _, _) -> Some (Lint_typed.norm_path path) | _ -> None

let positional = function Asttypes.Nolabel, Some a -> Some a | _ -> None

(* ---------------------------------------------------------------- *)
(* MSP002: structural =/<> on syntactically composite operands       *)
(* ---------------------------------------------------------------- *)

let is_composite e =
  match e.exp_desc with
  | Texp_tuple _ | Texp_record _ | Texp_array _ -> true
  | Texp_construct (_, _, _ :: _) -> true
  | Texp_variant (_, Some _) -> true
  | _ -> false

let check_poly_eq ctx f args =
  match ident_name f with
  | Some ("Stdlib.=" | "Stdlib.<>") when ctx.hot ->
      if List.exists is_composite (List.filter_map positional args) then
        add ctx ~code:"MSP002" ~loc:f.exp_loc
          "structural =/<> on a composite value in a hot-path directory; compare fields \
           monomorphically"
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* MSP004: float log feeding integer rounding                        *)
(* ---------------------------------------------------------------- *)

let is_round p =
  match p with "Stdlib.int_of_float" | "Stdlib.truncate" | "Float.to_int" -> true | _ -> false

let is_log p =
  match p with
  | "Stdlib.log" | "Stdlib.log10" | "Stdlib.exp" | "Stdlib.**" | "Float.log" | "Float.log2"
  | "Float.log10" | "Float.exp" | "Float.pow" ->
      true
  | _ -> false

exception Found

let expr_mentions_log e =
  let expr it e =
    (match ident_name e with Some p when is_log p -> raise Found | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  match it.expr it e with () -> false | exception Found -> true

let check_float_round ctx f args =
  match (ident_name f, List.filter_map positional args) with
  | Some p, a :: _ when is_round p && expr_mentions_log a ->
      add ctx ~code:"MSP004" ~loc:f.exp_loc
        (Printf.sprintf
           "%s over a float log/exp/** expression: float rounding misrounds near powers of \
            two (the PR 2 ceil_log2 bug); compute integer budgets by shifts"
           p)
  | Some "Stdlib./.", a :: b :: _ when expr_mentions_log a && expr_mentions_log b ->
      (* log x /. log 2. — the classic float-log2 idiom *)
      add ctx ~code:"MSP004" ~loc:f.exp_loc
        "float log-ratio (log x /. log b) idiom; compute integer logarithms by shifts \
         (the PR 2 ceil_log2 bug)"
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* MSP007: exported raising functions                                *)
(* ---------------------------------------------------------------- *)

let raising_apply e =
  match e.exp_desc with
  | Texp_apply (f, args) -> (
      match ident_name f with
      | Some ("Stdlib.failwith" | "Stdlib.invalid_arg") -> true
      | Some ("Stdlib.raise" | "Stdlib.raise_notrace") -> (
          match List.filter_map positional args with
          | { exp_desc = Texp_construct (_, { Types.cstr_tag = Cstr_extension (exc, _); _ }, _); _ }
            :: _ ->
              (* [raise Exit] is the local early-exit idiom, not a contract *)
              not (String.equal (Lint_typed.norm_path exc) "Stdlib.Exit")
          | _ -> true)
      | _ -> false)
  | _ -> false

(* A raise under a [try] is assumed caught; handlers still count
   (re-raises escape).  [match ... with exception] is the same construct
   spelled differently: raises in the scrutinee are assumed caught by the
   [exception] arms, raises in any arm's body escape. *)
let rec has_exception_case : computation general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_exception _ -> true
  | Tpat_or (a, b, _) -> has_exception_case a || has_exception_case b
  | _ -> false

let body_raises body =
  let expr (it : Tast_iterator.iterator) e =
    if raising_apply e then raise Found;
    match e.exp_desc with
    | Texp_try (_, handlers) -> List.iter (it.case it) handlers
    | Texp_match (_, cases, _) when List.exists (fun c -> has_exception_case c.c_lhs) cases ->
        List.iter (it.case it) cases
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  match it.expr it body with () -> false | exception Found -> true

let check_raise_contract ctx vb =
  match (ctx.mli, vb.vb_pat.pat_desc) with
  | Some exported, Tpat_var (_, { txt = name; _ }) when not (String.ends_with ~suffix:"_exn" name) -> (
      match Hashtbl.find_opt exported name with
      | Some true (* @raise documented *) | None (* not exported *) -> ()
      | Some false ->
          if body_raises vb.vb_expr then
            add ctx ~code:"MSP007" ~loc:vb.vb_loc
              (Printf.sprintf
                 "%s can raise but is not _exn-suffixed and its .mli doc has no @raise" name))
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* the combined pass                                                 *)
(* ---------------------------------------------------------------- *)

let lint_unit ~mli (u : Lint_typed.t) =
  let file = u.file in
  let ctx =
    {
      file;
      hot = Lint_config.in_hot_dir file;
      congest = Lint_config.in_congest_scope file;
      in_lib = Lint_config.under_prefix ~prefix:"lib" file;
      mli = Option.bind mli (mli_exports ~file:(file ^ "i"));
      acc = [];
    }
  in
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (path, _, _) -> check_ident ctx path e.exp_loc
    | Texp_apply (f, args) ->
        check_poly_eq ctx f args;
        check_float_round ctx f args
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let module_expr it m =
    (match m.mod_desc with
    | Tmod_ident (path, lid) -> check_module ctx path lid.loc
    | _ -> ());
    Tast_iterator.default_iterator.module_expr it m
  in
  let value_binding it vb =
    check_raise_contract ctx vb;
    Tast_iterator.default_iterator.value_binding it vb
  in
  let it = { Tast_iterator.default_iterator with expr; module_expr; value_binding } in
  it.structure it u.str;
  if
    Option.is_none mli
    && Lint_config.requires_mli file
    && Lint_config.rule_enabled ~code:"MSP006" ~file
  then
    {
      Lint_types.file;
      line = 1;
      col = 0;
      cnum = 0;
      code = "MSP006";
      message = "module has no .mli interface";
    }
    :: ctx.acc
  else ctx.acc
