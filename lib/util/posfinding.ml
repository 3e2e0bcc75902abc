(** A finding at a source position, shared by the two checkers whose
    findings point into program text: pslint ({!Ldb_pscheck}) over
    PostScript and the IR lint ({!Ldb_cc.Irlint}) over C.  Each checker
    keeps its own typed kind and hands its [kind_name] to the printers.
    Both output shapes are pinned by golden tests. *)

type 'kind t = { kind : 'kind; file : string; line : int; col : int; msg : string }

let to_string kind_name f =
  Printf.sprintf "%s:%d:%d: %s: %s" f.file f.line f.col (kind_name f.kind) f.msg

let to_json kind_name f =
  Printf.sprintf {|{"kind":"%s","file":"%s","line":%d,"col":%d,"msg":"%s"}|}
    (kind_name f.kind) (Json.escape f.file) f.line f.col (Json.escape f.msg)
