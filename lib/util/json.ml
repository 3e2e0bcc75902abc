(** Minimal JSON string escaping, shared by every hand-rolled JSON
    emitter in the tree (positioned findings, dbgcheck findings, bench
    records).  The output shape of each emitter is pinned by golden
    tests, so this must stay byte-compatible with the copies it
    replaced. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf
