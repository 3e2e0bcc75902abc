(** The compiler driver's link-time step (Sec. 3): after linking, run the
    [nm] equivalent over the program and generate PostScript that, when
    interpreted, builds the {e loader table} — a dictionary holding the
    program's top-level symbol-table dictionary, the anchor map, and the
    procedure table.

    The generated text is everything the debugger reads for a program:
    the (possibly deferred) per-unit symbol-table bodies, then the
    top-level dictionary merging all units, then the loader table. *)

open Ldb_cc

let pstr s = "(" ^ Psemit.ps_escape s ^ ")"

let unit_tag_of name =
  String.map (fun c -> if c = '.' || c = '/' || c = '-' then '_' else c) name

(** Generate the full PostScript text for a linked image. *)
let loader_table_ps (img : Link.image) : string =
  let buf = Buffer.create 8192 in
  let arch = Ldb_machine.Arch.name img.Link.i_arch in
  (* unit symbol-table bodies (deferred strings or procedures) *)
  List.iter (fun (p : Asm.ps_pieces) -> Buffer.add_string buf p.Asm.pp_defs) img.Link.i_ps;
  (* top-level dictionary: units merged *)
  let anchors =
    List.concat_map (fun (p : Asm.ps_pieces) -> p.Asm.pp_anchors) img.Link.i_ps
  in
  Buffer.add_string buf "/__symtab <<\n";
  Buffer.add_string buf (Printf.sprintf "  /architecture %s\n" (pstr arch));
  Buffer.add_string buf
    (Printf.sprintf "  /anchors [ %s ]\n"
       (String.concat " " (List.map (fun a -> "/" ^ a) anchors)));
  (* unit bodies, keyed by source file name, forced on demand.  Each entry
     also carries the demand hints psemit computed: the procedures the unit
     defines (names and linker labels), the source-line range of its
     stopping points, and the body's transfer encoding — the indexes that
     let the debugger force exactly the units a query needs. *)
  Buffer.add_string buf "  /units <<\n";
  List.iter
    (fun (p : Asm.ps_pieces) ->
      List.iter
        (fun (file, _) ->
          let tag = unit_tag_of file in
          Buffer.add_string buf
            (* load, don't execute: the eager form is an executable procedure *)
            (Printf.sprintf "    %s << /body /UNITBODY$%s load cvlit /tag %s\n" (pstr file)
               tag (pstr tag));
          Buffer.add_string buf
            (Printf.sprintf "      /names [ %s ]\n"
               (String.concat " " (List.map (fun (n, _) -> pstr n) p.Asm.pp_funcs)));
          Buffer.add_string buf
            (Printf.sprintf "      /labels [ %s ]\n"
               (String.concat " " (List.map (fun (_, l) -> pstr l) p.Asm.pp_funcs)));
          (match p.Asm.pp_lines with
          | Some (lo, hi) ->
              Buffer.add_string buf (Printf.sprintf "      /minline %d /maxline %d\n" lo hi)
          | None -> ());
          (match p.Asm.pp_encoding with
          | Some enc -> Buffer.add_string buf (Printf.sprintf "      /encoding %s\n" (pstr enc))
          | None -> ());
          Buffer.add_string buf "    >>\n")
        p.Asm.pp_sourcemap)
    img.Link.i_ps;
  Buffer.add_string buf "  >>\n";
  Buffer.add_string buf ">> def\n";
  (* the loader table proper, built from nm output *)
  let nm_entries = Nm.run img in
  Buffer.add_string buf "/__loader <<\n";
  Buffer.add_string buf "  /symtab __symtab\n";
  Buffer.add_string buf "  /anchormap <<\n";
  List.iter
    (fun (e : Nm.entry) ->
      if Nm.is_anchor e.Nm.name then
        Buffer.add_string buf (Printf.sprintf "    /%s 16#%08x\n" e.Nm.name e.Nm.addr))
    nm_entries;
  Buffer.add_string buf "  >>\n";
  Buffer.add_string buf "  /proctable [\n";
  List.iter
    (fun (e : Nm.entry) ->
      if Nm.is_text e && not (Nm.is_anchor e.Nm.name) then
        Buffer.add_string buf (Printf.sprintf "    16#%08x %s\n" e.Nm.addr (pstr e.Nm.name)))
    nm_entries;
  Buffer.add_string buf "  ]\n";
  (* globals: every data symbol, so GlobalLoc can resolve extern variables *)
  Buffer.add_string buf "  /globalmap <<\n";
  List.iter
    (fun (e : Nm.entry) ->
      if not (Nm.is_anchor e.Nm.name) then
        Buffer.add_string buf (Printf.sprintf "    %s 16#%08x\n" (pstr e.Nm.name) e.Nm.addr))
    nm_entries;
  Buffer.add_string buf "  >>\n";
  Buffer.add_string buf ">> def\n";
  Buffer.contents buf

(** Compile several C sources and link them, returning the image and the
    loader-table PostScript. *)
let build ?(debug = true) ?(defer = true) ?(compress = false)
    ~(arch : Ldb_machine.Arch.t) (sources : (string * string) list) :
    Link.image * string =
  let objs =
    List.map
      (fun (file, src) -> Compile.compile ~debug ~defer ~compress ~arch ~file src)
      sources
  in
  let img = Link.link objs in
  (img, loader_table_ps img)
