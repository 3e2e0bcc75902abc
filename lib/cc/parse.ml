(** Recursive-descent parser for the C subset.

    Grammar highlights: C89 block structure (declarations precede
    statements), struct definitions at file scope, [register]/[static]/
    [extern] storage classes, the usual expression grammar with
    precedence climbing. *)

open Ast

exception Error of string * Lex.pos

type state = {
  mutable toks : Lex.lexeme list;
  mutable last : Lex.pos;  (** position of the token consumed most recently *)
  structs : (string, Ctype.struct_def) Hashtbl.t;
}

let make toks = { toks; last = { line = 0; col = 0 }; structs = Hashtbl.create 8 }

let peek st = match st.toks with l :: _ -> l | [] -> { Lex.tok = Teof; pos = { line = 0; col = 0 } }
let pos st = (peek st).Lex.pos

let advance st = match st.toks with l :: rest -> st.last <- l.Lex.pos; st.toks <- rest | [] -> ()

let fail st msg = raise (Error (msg, pos st))

let expect_punct st p =
  match (peek st).Lex.tok with
  | Tpunct q when q = p -> advance st
  | _ -> fail st (Printf.sprintf "expected %s" p)

let accept_punct st p =
  match (peek st).Lex.tok with
  | Tpunct q when q = p ->
      advance st;
      true
  | _ -> false

let accept_kw st k =
  match (peek st).Lex.tok with
  | Tkw q when q = k ->
      advance st;
      true
  | _ -> false

let expect_id st =
  match (peek st).Lex.tok with
  | Tid n ->
      advance st;
      n
  | _ -> fail st "expected identifier"

(* --- types ------------------------------------------------------------ *)

let is_type_start st =
  match (peek st).Lex.tok with
  | Tkw ("void" | "char" | "short" | "int" | "unsigned" | "float" | "double" | "long" | "struct") ->
      true
  | _ -> false

(** Parse a type specifier (the base type, before declarators). *)
let rec base_type (st : state) (arch : Ldb_machine.Arch.t) : Ctype.t =
  if accept_kw st "void" then Ctype.Void
  else if accept_kw st "char" then Ctype.Char
  else if accept_kw st "short" then begin
    ignore (accept_kw st "int");
    Ctype.Short
  end
  else if accept_kw st "int" then Ctype.Int
  else if accept_kw st "unsigned" then begin
    ignore (accept_kw st "int");
    Ctype.Unsigned
  end
  else if accept_kw st "float" then Ctype.Float
  else if accept_kw st "long" then
    if accept_kw st "double" then Ctype.LongDouble
    else begin
      ignore (accept_kw st "int");
      Ctype.Int
    end
  else if accept_kw st "double" then Ctype.Double
  else if accept_kw st "struct" then begin
    let name = expect_id st in
    let sd =
      match Hashtbl.find_opt st.structs name with
      | Some sd -> sd
      | None ->
          let sd = { Ctype.sname = name; fields = []; ssize = 0; complete = false } in
          Hashtbl.replace st.structs name sd;
          sd
    in
    if accept_punct st "{" then begin
      let fields = ref [] in
      while not (accept_punct st "}") do
        let fty = base_type st arch in
        let rec members () =
          let name, ty = declarator st arch fty in
          fields := (name, ty) :: !fields;
          if accept_punct st "," then members ()
        in
        members ();
        expect_punct st ";"
      done;
      Ctype.layout_struct arch sd (List.rev !fields)
    end;
    Ctype.Struct sd
  end
  else fail st "expected type"

(** Parse a declarator: pointers, name, array suffixes.  Function
    declarators are handled by the caller. *)
and declarator st _arch (base : Ctype.t) : string * Ctype.t =
  let rec stars ty = if accept_punct st "*" then stars (Ctype.Ptr ty) else ty in
  let ty = stars base in
  (* function-pointer declarator: ( * name ) ( param-types ) *)
  if accept_punct st "(" then begin
    expect_punct st "*";
    let name = expect_id st in
    expect_punct st ")";
    expect_punct st "(";
    let params = ref [] in
    if not (accept_punct st ")") then
      if accept_kw st "void" then expect_punct st ")"
      else begin
        let rec go () =
          let pbase = base_type st _arch in
          let pty = stars pbase in
          (* parameter names are optional in a pointer declarator *)
          (match (peek st).Lex.tok with Tid _ -> advance st | _ -> ());
          params := pty :: !params;
          if accept_punct st "," then go () else expect_punct st ")"
        in
        go ()
      end;
    (name, Ctype.Ptr (Ctype.Func (ty, List.rev !params)))
  end
  else begin
  let name = expect_id st in
  let rec suffixes ty =
    if accept_punct st "[" then begin
      let n =
        match (peek st).Lex.tok with
        | Tint n ->
            advance st;
            Int32.to_int n
        | _ -> fail st "expected array size"
      in
      expect_punct st "]";
      (* process inner suffixes first: int a[2][3] = array 2 of array 3 *)
      let inner = suffixes ty in
      Ctype.Array (inner, n)
    end
    else ty
  in
  (name, suffixes ty)
  end

(* an abstract type for casts and sizeof: base + stars (no arrays needed) *)
and abstract_type st arch : Ctype.t =
  let base = base_type st arch in
  let rec stars ty = if accept_punct st "*" then stars (Ctype.Ptr ty) else ty in
  stars base

(* --- expressions -------------------------------------------------------- *)

(* precedence for binary operators *)
let prec = function
  | "*" | "/" | "%" -> 10
  | "+" | "-" -> 9
  | "<<" | ">>" -> 8
  | "<" | "<=" | ">" | ">=" -> 7
  | "==" | "!=" -> 6
  | "&" -> 5
  | "^" -> 4
  | "|" -> 3
  | "&&" -> 2
  | "||" -> 1
  | _ -> 0

let assign_ops = [ "="; "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^="; "<<="; ">>=" ]

let rec expression st arch : expr = assignment st arch

and assignment st arch : expr =
  let p = pos st in
  let lhs = conditional st arch in
  match (peek st).Lex.tok with
  | Tpunct op when List.mem op assign_ops ->
      advance st;
      let rhs = assignment st arch in
      Eassign (op, lhs, rhs, p)
  | _ -> lhs

and conditional st arch : expr =
  let p = pos st in
  let c = binary st arch 1 in
  if accept_punct st "?" then begin
    let t = expression st arch in
    expect_punct st ":";
    let f = conditional st arch in
    Econd (c, t, f, p)
  end
  else c

and binary st arch min_prec : expr =
  let lhs = ref (unary st arch) in
  let continue_ = ref true in
  while !continue_ do
    match (peek st).Lex.tok with
    | Tpunct op when prec op >= min_prec && prec op > 0 ->
        let p = pos st in
        advance st;
        let rhs = binary st arch (prec op + 1) in
        lhs := Ebin (op, !lhs, rhs, p)
    | _ -> continue_ := false
  done;
  !lhs

and unary st arch : expr =
  let p = pos st in
  match (peek st).Lex.tok with
  | Tpunct "-" ->
      advance st;
      Eun ("-", unary st arch, p)
  | Tpunct "!" ->
      advance st;
      Eun ("!", unary st arch, p)
  | Tpunct "~" ->
      advance st;
      Eun ("~", unary st arch, p)
  | Tpunct "*" ->
      advance st;
      Eun ("*", unary st arch, p)
  | Tpunct "&" ->
      advance st;
      Eun ("&", unary st arch, p)
  | Tpunct "++" ->
      advance st;
      Eincr (true, 1, unary st arch, p)
  | Tpunct "--" ->
      advance st;
      Eincr (true, -1, unary st arch, p)
  | Tkw "sizeof" ->
      advance st;
      if accept_punct st "(" then
        if is_type_start st then begin
          let ty = abstract_type st arch in
          expect_punct st ")";
          Esizeof_t (ty, p)
        end
        else begin
          let e = expression st arch in
          expect_punct st ")";
          Esizeof_e (e, p)
        end
      else Esizeof_e (unary st arch, p)
  | Tpunct "(" when (match st.toks with
                     | _ :: l :: _ -> (
                         match l.Lex.tok with
                         | Tkw ("void" | "char" | "short" | "int" | "unsigned" | "float"
                               | "double" | "long" | "struct") ->
                             true
                         | _ -> false)
                     | _ -> false) ->
      advance st;
      let ty = abstract_type st arch in
      expect_punct st ")";
      Ecast (ty, unary st arch, p)
  | _ -> postfix st arch

and postfix st arch : expr =
  let e = ref (primary st arch) in
  let continue_ = ref true in
  while !continue_ do
    let p = pos st in
    match (peek st).Lex.tok with
    | Tpunct "[" ->
        advance st;
        let i = expression st arch in
        expect_punct st "]";
        e := Eindex (!e, i, p)
    | Tpunct "(" ->
        advance st;
        let args = ref [] in
        if not (accept_punct st ")") then begin
          let rec go () =
            args := assignment st arch :: !args;
            if accept_punct st "," then go () else expect_punct st ")"
          in
          go ()
        end;
        e := Ecall (!e, List.rev !args, p)
    | Tpunct "." ->
        advance st;
        e := Efield (!e, expect_id st, p)
    | Tpunct "->" ->
        advance st;
        e := Earrow (!e, expect_id st, p)
    | Tpunct "++" ->
        advance st;
        e := Eincr (false, 1, !e, p)
    | Tpunct "--" ->
        advance st;
        e := Eincr (false, -1, !e, p)
    | _ -> continue_ := false
  done;
  !e

and primary st arch : expr =
  let p = pos st in
  match (peek st).Lex.tok with
  | Tint n ->
      advance st;
      Eint (n, p)
  | Tfloat f ->
      advance st;
      Efloat (f, p)
  | Tchar c ->
      advance st;
      Echar (c, p)
  | Tstring s ->
      advance st;
      (* adjacent string literals concatenate *)
      let buf = Buffer.create (String.length s) in
      Buffer.add_string buf s;
      let rec more () =
        match (peek st).Lex.tok with
        | Tstring s2 ->
            advance st;
            Buffer.add_string buf s2;
            more ()
        | _ -> ()
      in
      more ();
      Estr (Buffer.contents buf, p)
  | Tid n ->
      advance st;
      Eid (n, p)
  | Tpunct "(" ->
      advance st;
      let e = expression st arch in
      expect_punct st ")";
      e
  | _ -> fail st "expected expression"

(* --- statements --------------------------------------------------------- *)

let parse_storage st : storage =
  if accept_kw st "static" then Static
  else if accept_kw st "extern" then Extern
  else if accept_kw st "register" then Register
  else Auto

let rec statement st arch : stmt =
  let p = pos st in
  match (peek st).Lex.tok with
  | Tpunct ";" ->
      advance st;
      Sempty p
  | Tpunct "{" -> Sblock (block st arch, p)
  | Tkw "if" ->
      advance st;
      expect_punct st "(";
      let cp = pos st in
      let c = expression st arch in
      expect_punct st ")";
      let then_ = statement st arch in
      let else_ = if accept_kw st "else" then Some (statement st arch) else None in
      Sif (c, then_, else_, cp)
  | Tkw "while" ->
      advance st;
      expect_punct st "(";
      let cp = pos st in
      let c = expression st arch in
      expect_punct st ")";
      Swhile (c, statement st arch, cp)
  | Tkw "do" ->
      advance st;
      let body = statement st arch in
      if not (accept_kw st "while") then fail st "expected while";
      expect_punct st "(";
      let cp = pos st in
      let c = expression st arch in
      expect_punct st ")";
      expect_punct st ";";
      Sdo (body, c, cp)
  | Tkw "for" ->
      advance st;
      expect_punct st "(";
      let init = if accept_punct st ";" then None else begin
        let e = expression st arch in
        expect_punct st ";";
        Some e
      end in
      let cond = if accept_punct st ";" then None else begin
        let e = expression st arch in
        expect_punct st ";";
        Some e
      end in
      let incr = if accept_punct st ")" then None else begin
        let e = expression st arch in
        expect_punct st ")";
        Some e
      end in
      Sfor (init, cond, incr, statement st arch, p)
  | Tkw "switch" ->
      advance st;
      expect_punct st "(";
      let scrutinee = expression st arch in
      expect_punct st ")";
      expect_punct st "{";
      let cases = ref [] in
      let rec parse_cases () =
        if accept_punct st "}" then ()
        else begin
          let v =
            if accept_kw st "case" then begin
              let v =
                match (peek st).Lex.tok with
                | Tint n ->
                    advance st;
                    Some n
                | Tchar c ->
                    advance st;
                    Some (Int32.of_int (Char.code c))
                | Tpunct "-" -> (
                    advance st;
                    match (peek st).Lex.tok with
                    | Tint n ->
                        advance st;
                        Some (Int32.neg n)
                    | _ -> fail st "expected case constant")
                | _ -> fail st "expected case constant"
              in
              expect_punct st ":";
              v
            end
            else if accept_kw st "default" then begin
              expect_punct st ":";
              None
            end
            else fail st "expected case or default"
          in
          let body = ref [] in
          let rec stmts () =
            match (peek st).Lex.tok with
            | Tkw ("case" | "default") | Tpunct "}" -> ()
            | _ ->
                body := statement st arch :: !body;
                stmts ()
          in
          stmts ();
          cases := { sc_val = v; sc_body = List.rev !body } :: !cases;
          parse_cases ()
        end
      in
      parse_cases ();
      Sswitch (scrutinee, List.rev !cases, p)
  | Tkw "return" ->
      advance st;
      if accept_punct st ";" then Sreturn (None, p)
      else begin
        let e = expression st arch in
        expect_punct st ";";
        Sreturn (Some e, p)
      end
  | Tkw "break" ->
      advance st;
      expect_punct st ";";
      Sbreak p
  | Tkw "continue" ->
      advance st;
      expect_punct st ";";
      Scontinue p
  | _ ->
      let e = expression st arch in
      expect_punct st ";";
      Sexpr (e, p)

and block st arch : block =
  expect_punct st "{";
  let decls = ref [] in
  let rec parse_decls () =
    let is_storage =
      match (peek st).Lex.tok with Tkw ("static" | "register" | "extern") -> true | _ -> false
    in
    if is_storage || is_type_start st then begin
      let storage = parse_storage st in
      let base = base_type st arch in
      let rec vars () =
        let dpos = pos st in
        let name, ty = declarator st arch base in
        let init = if accept_punct st "=" then Some (assignment st arch) else None in
        decls := { dname = name; dty = ty; dstorage = storage; dinit = init; dpos } :: !decls;
        if accept_punct st "," then vars ()
      in
      vars ();
      expect_punct st ";";
      parse_decls ()
    end
  in
  parse_decls ();
  let stmts = ref [] in
  while not (accept_punct st "}") do
    stmts := statement st arch :: !stmts
  done;
  { bdecls = List.rev !decls; bstmts = List.rev !stmts }

(* --- top level ------------------------------------------------------------ *)

let parse_top st arch : top option =
  if (peek st).Lex.tok = Teof then None
  else begin
    let storage = parse_storage st in
    let base = base_type st arch in
    (* pure struct definition: struct s { ... }; *)
    if accept_punct st ";" then
      Some (Tvar { dname = "%struct"; dty = base; dstorage = storage; dinit = None;
                   dpos = pos st })
    else begin
      let dpos = pos st in
      let name, ty = declarator st arch base in
      if accept_punct st "(" then begin
        (* function *)
        let params = ref [] in
        if not (accept_punct st ")") then begin
          if accept_kw st "void" then expect_punct st ")"
          else begin
            let rec go () =
              let pbase = base_type st arch in
              let ppos = pos st in
              let pname, pty = declarator st arch pbase in
              (* arrays decay to pointers in parameters *)
              let pty = match pty with Ctype.Array (e, _) -> Ctype.Ptr e | t -> t in
              params := (pname, pty, ppos) :: !params;
              if accept_punct st "," then go () else expect_punct st ")"
            in
            go ()
          end
        end;
        if accept_punct st ";" then
          Some (Tfuncdecl (name, Ctype.Func (ty, List.map (fun (_, t, _) -> t) (List.rev !params)), dpos))
        else begin
          let body = block st arch in
          let fendpos = st.last (* the closing brace [block] just consumed *) in
          Some
            (Tfunc
               {
                 fname = name;
                 fret = ty;
                 fparams = List.rev !params;
                 fstorage = storage;
                 fbody = body;
                 fpos = dpos;
                 fendpos;
               })
        end
      end
      else begin
        let init = if accept_punct st "=" then Some (assignment st arch) else None in
        expect_punct st ";";
        Some (Tvar { dname = name; dty = ty; dstorage = storage; dinit = init; dpos })
      end
    end
  end

(** Parse a translation unit. *)
let parse_unit ~(file : string) ~(arch : Ldb_machine.Arch.t) (src : string) : unit_ =
  let st = make (Lex.all src) in
  let rec go acc =
    match parse_top st arch with Some t -> go (t :: acc) | None -> List.rev acc
  in
  { uname = file; tops = go [] }
