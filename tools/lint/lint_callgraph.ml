open Typedtree

type node = {
  key : string;
  file : string;
  name : string;
  loc : Location.t;
  attrs : Parsetree.attributes;
  body : Typedtree.expression;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  edges : (string, (string * int) list) Hashtbl.t;
  rev : (string, string list) Hashtbl.t;
  (* "<file>#<unique_name>" -> node key; stamps are only unique within one
     compilation, so same-unit resolution must be scoped by file *)
  ident_key : (string, string) Hashtbl.t;
}

let ident_slot ~file id = file ^ "#" ^ Ident.unique_name id

let binding_ident vb =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) -> Some id
  | Tpat_alias (_, id, _) -> Some id
  | _ -> None

(* ------------------------------------------------------------------ *)
(* pass 1: nodes                                                      *)
(* ------------------------------------------------------------------ *)

let rec scan_items g ~modname ~file items =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match binding_ident vb with
              | None -> ()
              | Some id ->
                  let key = modname ^ "." ^ Ident.name id in
                  if not (Hashtbl.mem g.nodes key) then
                    Hashtbl.replace g.nodes key
                      {
                        key;
                        file;
                        name = Ident.name id;
                        loc = vb.vb_loc;
                        attrs = vb.vb_attributes;
                        body = vb.vb_expr;
                      };
                  Hashtbl.replace g.ident_key (ident_slot ~file id) key)
            vbs
      | Tstr_module mb -> scan_module g ~file mb
      | Tstr_recmodule mbs -> List.iter (scan_module g ~file) mbs
      | _ -> ())
    items

and scan_module g ~file mb =
  match mb.mb_id with
  | None -> ()
  | Some id -> scan_module_expr g ~modname:(Ident.name id) ~file mb.mb_expr

and scan_module_expr g ~modname ~file me =
  match me.mod_desc with
  | Tmod_structure s -> scan_items g ~modname ~file s.str_items
  | Tmod_constraint (me, _, _, _) -> scan_module_expr g ~modname ~file me
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* pass 2: edges                                                      *)
(* ------------------------------------------------------------------ *)

let refs_in g ~file expr =
  let acc = ref [] in
  let expr_it (self : Tast_iterator.iterator) e =
    (match e.exp_desc with
    | Texp_ident (path, _, _) -> (
        let target =
          match path with
          | Path.Pident id -> Hashtbl.find_opt g.ident_key (ident_slot ~file id)
          | _ ->
              let n = Lint_typed.norm_path path in
              if Hashtbl.mem g.nodes n then Some n else None
        in
        match target with
        | Some key -> acc := (key, e.exp_loc.loc_start.pos_cnum) :: !acc
        | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr = expr_it } in
  it.expr it expr;
  List.rev !acc

let build units =
  let g =
    {
      nodes = Hashtbl.create 256;
      edges = Hashtbl.create 256;
      rev = Hashtbl.create 256;
      ident_key = Hashtbl.create 256;
    }
  in
  List.iter
    (fun (u : Lint_typed.t) ->
      scan_items g ~modname:u.modname ~file:u.file u.str.str_items)
    units;
  Hashtbl.iter
    (fun key node ->
      let refs =
        List.filter (fun (callee, _) -> callee <> key) (refs_in g ~file:node.file node.body)
      in
      Hashtbl.replace g.edges key refs;
      List.iter
        (fun (callee, _) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt g.rev callee) in
          if not (List.mem key prev) then Hashtbl.replace g.rev callee (key :: prev))
        refs)
    g.nodes;
  g

(* ------------------------------------------------------------------ *)
(* queries                                                            *)
(* ------------------------------------------------------------------ *)


let iter_nodes g f =
  (* deterministic order for reproducible findings *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) g.nodes [] in
  List.iter (fun k -> f (Hashtbl.find g.nodes k)) (List.sort compare keys)

let resolve_ident g ~file id = Hashtbl.find_opt g.ident_key (ident_slot ~file id)
let callers g key = Option.value ~default:[] (Hashtbl.find_opt g.rev key)

let reachable g roots =
  let seen = Hashtbl.create 64 in
  let rec go key =
    if Hashtbl.mem g.nodes key && not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      List.iter
        (fun (callee, _) -> go callee)
        (Option.value ~default:[] (Hashtbl.find_opt g.edges key))
    end
  in
  List.iter go roots;
  seen
