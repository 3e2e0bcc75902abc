(** pslint: a static stack-effect and type verifier for the embedded
    PostScript dialect.

    The checker abstractly interprets a program over the type lattice of
    {!Lattice}: the operand stack is a list of abstract values over an
    [Empty] base (a program run from an empty stack) or an [Unknown] base
    (a procedure analyzed polymorphically, where pops past the base yield
    [Any] instead of underflowing).  Branches of [if]/[ifelse] are joined;
    loop bodies run to a small fixpoint with widening; procedure literals
    passed around as values are inlined at their call sites, with a
    recursion guard.  Anything the analysis cannot follow (executing an
    unknown value, [where], marks below an unknown base) drops the state
    to chaos, which suppresses all later findings in that sequence — the
    checker only reports what is guaranteed to go wrong. *)

open Ldb_pscript
open Lattice

(* --- abstract machine state --------------------------------------------- *)

type bse = Empty | Unknown

type stk = {
  items : av list;  (** top first: only values pushed above [base] *)
  base : bse;
  below : int;  (** pops past an [Unknown] base (the procedure's demand) *)
}

type state =
  | Chaos     (** analysis gave up; no further findings in this sequence *)
  | Diverged  (** control left this sequence (exit / stop / quit) *)
  | St of stk

let empty_state = St { items = []; base = Empty; below = 0 }
let poly_state = St { items = []; base = Unknown; below = 0 }

let av_equal a b =
  a.t = b.t
  && (match (a.c, b.c) with
     | None, None -> true
     | Some x, Some y -> konst_equal x y
     | _ -> false)

let state_equal a b =
  match (a, b) with
  | Chaos, Chaos | Diverged, Diverged -> true
  | St x, St y ->
      x.base = y.base && x.below = y.below
      && List.length x.items = List.length y.items
      && List.for_all2 av_equal x.items y.items
  | _ -> false

(* --- checker context ----------------------------------------------------- *)

type ctx = {
  mutable findings : finding list;  (** reverse order *)
  seen : (string, unit) Hashtbl.t;  (** finding dedup *)
  mutable scopes : (string, av) Hashtbl.t list;  (** top first; last = global *)
  mutable inline_stack : int list;  (** proc ids being inlined (recursion guard) *)
  analyzed : (int, unit) Hashtbl.t;  (** proc ids whose body was analyzed *)
  mutable exit_collectors : state list ref list;  (** innermost loop first *)
  mutable saw_stop : bool;
  file : string;
}

let report ctx kind (n : Past.node) msg =
  let f =
    { Ldb_util.Posfinding.kind; file = ctx.file; line = n.Past.line; col = n.Past.col; msg }
  in
  let key = Ldb_util.Posfinding.to_string kind_name f in
  if not (Hashtbl.mem ctx.seen key) then begin
    Hashtbl.replace ctx.seen key ();
    ctx.findings <- f :: ctx.findings
  end

(* --- stack primitives ----------------------------------------------------- *)

let push v (s : stk) = { s with items = v :: s.items }

(** Pop [n] values (top first).  Running out over an [Empty] base is a
    guaranteed underflow (reported once per operator); over an [Unknown]
    base the missing values are the caller's, so they become [Any]. *)
let popn ctx node opname n (s : stk) : av list * stk =
  let rec go k items acc =
    if k = 0 then (List.rev acc, items, 0)
    else
      match items with
      | v :: rest -> go (k - 1) rest (v :: acc)
      | [] ->
          let missing = k in
          let rec fill k acc = if k = 0 then acc else fill (k - 1) (any :: acc) in
          (List.rev (fill missing acc), [], missing)
  in
  let vs, items, missing = go n s.items [] in
  if missing > 0 && s.base = Empty then
    report ctx Underflow node
      (Printf.sprintf "%s: needs %d operand%s, stack has %d" opname n
         (if n = 1 then "" else "s")
         (n - missing));
  let below = if s.base = Unknown then s.below + missing else s.below in
  (vs, { s with items; below })

let chk ctx node opname cls (v : av) =
  if not (cls_admits cls v.t) then
    report ctx Type_clash node
      (Printf.sprintf "%s: expected %s, got %s" opname (cls_name cls) (ty_name v.t))

(** Split the pushed items at the topmost mark.  [None] when no mark is
    among them (it may still be below an [Unknown] base). *)
let split_at_mark (s : stk) : (av list * av list) option =
  let rec go acc = function
    | { t = MarkT; _ } :: rest -> Some (List.rev acc, rest)
    | v :: rest -> go (v :: acc) rest
    | [] -> None
  in
  go [] s.items

(* --- joins ---------------------------------------------------------------- *)

(** Join two states after a branch.  Differing net stack effects are a
    [Branch_arity] finding at a conditional (and silent widening to chaos
    inside a loop fixpoint). *)
let join ctx node ~loop a b =
  match (a, b) with
  | Diverged, x | x, Diverged -> x
  | Chaos, _ | _, Chaos -> Chaos
  | St s1, St s2 ->
      if s1.base <> s2.base then Chaos
      else
        let n1 = List.length s1.items and n2 = List.length s2.items in
        let net1 = n1 - s1.below and net2 = n2 - s2.below in
        if net1 <> net2 then begin
          if not loop then
            report ctx Branch_arity node
              (Printf.sprintf "branches leave different stack depths (%+d vs %+d)" net1 net2);
          Chaos
        end
        else if s1.below = s2.below then
          St { s1 with items = List.map2 av_join s1.items s2.items }
        else
          (* same net effect through different demand: widen to all-Any *)
          let m = max s1.below s2.below in
          St { base = s1.base; below = m; items = List.init (net1 + m) (fun _ -> any) }

(* --- the builtin signature table ------------------------------------------ *)

(** Generic operators: operands consumed (top first) and results pushed
    (in push order).  Operators needing constants, marks, control flow or
    polymorphism are handled specially in [exec_special]. *)
let builtin_sig : string -> (cls list * ty list) option = function
  | "pop" -> Some ([ CAny ], [])
  | "mark" | "[" | "<<" -> Some ([], [ MarkT ])
  | "div" -> Some ([ CNum; CNum ], [ Real ])
  | "idiv" | "mod" | "bitshift" -> Some ([ CInt; CInt ], [ Int ])
  | "sqrt" | "ln" | "log" | "sin" | "cos" -> Some ([ CNum ], [ Real ])
  | "atan" | "exp" -> Some ([ CNum; CNum ], [ Real ])
  | "eq" | "ne" -> Some ([ CAny; CAny ], [ Bool ])
  | "dict" -> Some ([ CInt ], [ Dict ])
  | "known" -> Some ([ CKey; CDict ], [ Bool ])
  | "undef" -> Some ([ CKey; CDict ], [])
  | "currentdict" -> Some ([], [ Dict ])
  | "countdictstack" -> Some ([], [ Int ])
  | "type" -> Some ([ CAny ], [ Name ])
  | "cvn" -> Some ([ CStr ], [ Name ])
  | "cvs" -> Some ([ CAny ], [ Str ])
  | "xcheck" -> Some ([ CAny ], [ Bool ])
  | "print" | "SysPrint" -> Some ([ CStr ], [])
  | "=" | "==" -> Some ([ CAny ], [])
  | "pstack" | "flush" -> Some ([], [])
  | "Put" -> Some ([ CStr ], [])
  | "Break" | "Begin" | "PPWidth" -> Some ([ CInt ], [])
  | "End" | "Newline" -> Some ([], [])
  (* debugging extensions *)
  | "Shifted" -> Some ([ CInt; CLoc ], [ Loc ])
  | "Immediate" | "DataLoc" | "CodeLoc" -> Some ([ CInt ], [ Loc ])
  | "LocOffset" -> Some ([ CLoc ], [ Int ])
  | "LocSpace" -> Some ([ CLoc ], [ Str ])
  | "FetchI8" | "FetchU8" | "FetchI16" | "FetchU16" | "FetchI32" | "FetchU32" ->
      Some ([ CLoc; CMem ], [ Int ])
  | "FetchF32" | "FetchF64" | "FetchF80" -> Some ([ CLoc; CMem ], [ Real ])
  | "FetchString" -> Some ([ CInt; CLoc; CMem ], [ Str ])
  | "StoreI8" | "StoreI16" | "StoreI32" | "StoreF32" | "StoreF64" | "StoreF80" ->
      Some ([ CNum; CLoc; CMem ], [])
  | "hexstr" -> Some ([ CInt ], [ Str ])
  | "DeclSubst" | "concatstr" -> Some ([ CStr; CStr ], [ Str ])
  | "LocalMemory" -> Some ([], [ Mem ])
  | "charstr" -> Some ([ CInt ], [ Str ])
  | _ -> None

let special_ops =
  [
    "exch"; "dup"; "copy"; "index"; "roll"; "clear"; "count"; "cleartomark";
    "counttomark"; "add"; "sub"; "mul"; "max"; "min"; "neg"; "abs"; "ceiling";
    "floor"; "round"; "truncate"; "gt"; "ge"; "lt"; "le";
    "and"; "or"; "xor"; "not"; "exec"; "if"; "ifelse"; "for"; "repeat"; "loop";
    "exit"; "stop"; "stopped"; "quit"; "forall"; ">>"; "begin"; "end"; "def";
    "load"; "store"; "where"; "get"; "put"; "length"; "array"; "]"; "aload";
    "astore"; "cvi"; "cvr"; "cvx"; "cvlit"; "Absolute"; "ImmediateCell";
  ]

let builtin_const : string -> av option = function
  | "true" -> Some { t = Bool; c = Some (KB true) }
  | "false" -> Some { t = Bool; c = Some (KB false) }
  | "null" -> Some (of_ty Null)
  | _ -> None

(** Is [name] in the checker's signature table (exhaustiveness over
    [Interp.registered_ops])? *)
let covers name =
  builtin_sig name <> None || List.mem name special_ops || builtin_const name <> None

(* --- environments ---------------------------------------------------------- *)

type env = { mutable env_scopes : (string, av) Hashtbl.t list }

let base_env () = { env_scopes = [ Hashtbl.create 64 ] }

(** Declare a name the surrounding system binds before the checked code
    runs (machine-dependent PostScript, per-target operators, frame
    context).  Goes to the global (bottom) scope. *)
let declare env name v =
  match List.rev env.env_scopes with
  | g :: _ -> Hashtbl.replace g name v
  | [] -> ()

let v_sig consumes produces = { t = Proc; c = Some (KSig (consumes, produces)) }
let v_str ?k () = { t = Str; c = Option.map (fun s -> KS s) k }

(* --- the abstract interpreter ---------------------------------------------- *)

let lookup ctx name =
  let rec go = function
    | [] -> None
    | sc :: rest -> ( match Hashtbl.find_opt sc name with Some v -> Some v | None -> go rest)
  in
  go ctx.scopes

let rec run ctx (st : state) (nodes : Past.node list) : state =
  List.fold_left
    (fun st n -> match st with Chaos | Diverged -> st | St _ -> exec_node ctx st n)
    st nodes

and exec_node ctx (st : state) (n : Past.node) : state =
  let s = match st with St s -> s | _ -> assert false in
  match n.Past.it with
  | Past.PInt k -> St (push { t = Int; c = Some (KI k) } s)
  | Past.PReal _ -> St (push (of_ty Real) s)
  | Past.PStr str -> St (push { t = Str; c = Some (KS str) } s)
  | Past.PLitName nm -> St (push { t = Name; c = Some (KS nm) } s)
  | Past.PProc p -> St (push { t = Proc; c = Some (KP p) } s)
  | Past.PExecName nm -> exec_name ctx st n nm

and exec_name ctx st n name : state =
  match lookup ctx name with
  | Some b -> (
      match b.c with
      | Some (KP p) when b.t = Proc -> inline ctx n st p
      | Some (KSig (cons, prods)) -> apply_sig ctx n name st cons prods
      | _ ->
          if b.t = Proc then Chaos
          else
            let s = match st with St s -> s | _ -> assert false in
            St (push b s))
  | None -> (
      match builtin_const name with
      | Some v ->
          let s = match st with St s -> s | _ -> assert false in
          St (push v s)
      | None -> (
          match builtin_sig name with
          | Some (cons, prods) -> apply_sig ctx n name st cons prods
          | None ->
              if List.mem name special_ops then exec_special ctx n st name
              else begin
                report ctx Unknown_op n (Printf.sprintf "unknown operator '%s'" name);
                Chaos
              end))

and apply_sig ctx n name st consumes produces : state =
  let s = match st with St s -> s | _ -> assert false in
  let vs, s = popn ctx n name (List.length consumes) s in
  List.iter2 (fun c v -> chk ctx n name c v) consumes vs;
  St (List.fold_left (fun s t -> push (of_ty t) s) s produces)

(** Inline a known procedure body at its (dynamic) call site. *)
and inline ctx n st (p : Past.proc) : state =
  if List.mem p.Past.proc_id ctx.inline_stack then Chaos
  else begin
    Hashtbl.replace ctx.analyzed p.Past.proc_id ();
    ctx.inline_stack <- p.Past.proc_id :: ctx.inline_stack;
    let r = run ctx st p.Past.body in
    ctx.inline_stack <- List.tl ctx.inline_stack;
    ignore n;
    r
  end

(** Analyze a stored procedure polymorphically: unknown caller stack, so
    only defects independent of the calling context are reported. *)
and analyze_poly ctx (p : Past.proc) =
  if not (Hashtbl.mem ctx.analyzed p.Past.proc_id) then begin
    let dummy = { Past.it = Past.PProc p; line = 0; col = 0 } in
    ignore (inline ctx dummy poly_state p)
  end

(** Loop fixpoint: iterate [body] from [st0], pushing [iter_push] per
    iteration, until the joined state is stable (or widen to chaos).  The
    result joins the invariant with every state captured at an [exit]. *)
and run_loop ctx n st0 (p : Past.proc) ~(iter_push : ty list) ~(infinite : bool) : state =
  let exits = ref [] in
  ctx.exit_collectors <- exits :: ctx.exit_collectors;
  let rec go st iters =
    match st with
    | Chaos -> Chaos
    | Diverged -> Diverged
    | St s ->
        if iters > 4 then Chaos
        else
          let st_in = St (List.fold_left (fun s t -> push (of_ty t) s) s iter_push) in
          let st' = inline ctx n st_in p in
          let j = join ctx n ~loop:true st st' in
          if state_equal j st then st else go j (iters + 1)
  in
  let inv = go st0 1 in
  ctx.exit_collectors <- List.tl ctx.exit_collectors;
  let inv = if infinite then Diverged else inv in
  List.fold_left (fun a b -> join ctx n ~loop:true a b) inv !exits

and exec_special ctx n st name : state =
  let s = match st with St s -> s | _ -> assert false in
  let pop1 cls s =
    let vs, s = popn ctx n name 1 s in
    let v = List.hd vs in
    chk ctx n name cls v;
    (v, s)
  in
  match name with
  (* ---- stack manipulation ---- *)
  | "exch" ->
      let vs, s = popn ctx n name 2 s in
      let b, a = (List.nth vs 0, List.nth vs 1) in
      St (push a (push b s))
  | "dup" ->
      let v, s = pop1 CAny s in
      St (push v (push v s))
  | "copy" -> (
      let v, s = pop1 CInt s in
      match v.c with
      | Some (KI k) when k < 0 ->
          report ctx Range n "copy: negative count";
          St s
      | Some (KI 0) -> St s
      | Some (KI k) ->
          let j = List.length s.items in
          if j >= k then
            let top = List.filteri (fun i _ -> i < k) s.items in
            St { s with items = top @ s.items }
          else if s.base = Empty then begin
            report ctx Underflow n
              (Printf.sprintf "copy: needs %d operands, stack has %d" k j);
            St s
          end
          else Chaos
      | _ -> Chaos)
  | "index" -> (
      let v, s = pop1 CInt s in
      match v.c with
      | Some (KI k) when k < 0 ->
          report ctx Range n "index: negative index";
          St (push any s)
      | Some (KI k) ->
          let j = List.length s.items in
          if k < j then St (push (List.nth s.items k) s)
          else if s.base = Empty then begin
            report ctx Underflow n
              (Printf.sprintf "index: needs depth %d, stack has %d" (k + 1) j);
            St (push any s)
          end
          else St (push any s)
      | _ -> St (push any s))
  | "roll" -> (
      let vj, s = pop1 CInt s in
      let vn, s =
        let vs, s = popn ctx n name 1 s in
        let v = List.hd vs in
        chk ctx n name CInt v;
        (v, s)
      in
      match vn.c with
      | Some (KI k) when k < 0 ->
          report ctx Range n "roll: negative count";
          St s
      | Some (KI 0) -> St s
      | Some (KI k) ->
          let j = List.length s.items in
          if j >= k then
            let top = List.filteri (fun i _ -> i < k) s.items in
            let rest = List.filteri (fun i _ -> i >= k) s.items in
            let rotated =
              match vj.c with
              | Some (KI jj) ->
                  let arr = Array.of_list (List.rev top) in
                  let out = Array.make k arr.(0) in
                  Array.iteri (fun i v -> out.((((i + jj) mod k) + k) mod k) <- v) arr;
                  List.rev (Array.to_list out)
              | None | Some _ ->
                  let joined = List.fold_left av_join (List.hd top) top in
                  List.init k (fun _ -> joined)
            in
            St { s with items = rotated @ rest }
          else if s.base = Empty then begin
            report ctx Underflow n
              (Printf.sprintf "roll: needs %d operands, stack has %d" k j);
            St s
          end
          else Chaos
      | _ -> Chaos)
  | "clear" -> if s.base = Empty then St { s with items = [] } else Chaos
  | "count" ->
      let v =
        if s.base = Empty then { t = Int; c = Some (KI (List.length s.items)) }
        else of_ty Int
      in
      St (push v s)
  | "cleartomark" -> (
      match split_at_mark s with
      | Some (_, rest) -> St { s with items = rest }
      | None ->
          if s.base = Empty then begin
            report ctx Unmatched_mark n "cleartomark: no mark on the stack";
            St { s with items = [] }
          end
          else Chaos)
  | "counttomark" -> (
      match split_at_mark s with
      | Some (elems, _) -> St (push { t = Int; c = Some (KI (List.length elems)) } s)
      | None ->
          if s.base = Empty then begin
            report ctx Unmatched_mark n "counttomark: no mark on the stack";
            St (push (of_ty Int) s)
          end
          else St (push (of_ty Int) s))
  (* ---- arithmetic with constant folding ---- *)
  | "add" | "sub" | "mul" | "max" | "min" ->
      let vs, s = popn ctx n name 2 s in
      let b, a = (List.nth vs 0, List.nth vs 1) in
      chk ctx n name CNum a;
      chk ctx n name CNum b;
      let v =
        match (a.t, b.t, a.c, b.c) with
        | Int, Int, Some (KI x), Some (KI y) ->
            let k =
              match name with
              | "add" -> x + y
              | "sub" -> x - y
              | "mul" -> x * y
              | "max" -> max x y
              | _ -> min x y
            in
            { t = Int; c = Some (KI k) }
        | Int, Int, _, _ -> of_ty Int
        | Real, _, _, _ | _, Real, _, _ -> of_ty Real
        | _ -> of_ty Num
      in
      St (push v s)
  | "neg" | "abs" | "ceiling" | "floor" | "round" | "truncate" ->
      (* the interpreter keeps an Int an Int and anything else a Real, so
         the abstract result must preserve the operand type — widening a
         definite Real to Num here let "2.5 abs not" slip past the check
         and trap at run time *)
      let vs, s = popn ctx n name 1 s in
      let a = List.hd vs in
      chk ctx n name CNum a;
      let v =
        match (a.t, a.c) with
        | Int, Some (KI x) ->
            let k = match name with "neg" -> -x | "abs" -> abs x | _ -> x in
            { t = Int; c = Some (KI k) }
        | Int, _ -> of_ty Int
        | Real, _ -> of_ty Real
        | _ -> of_ty Num
      in
      St (push v s)
  (* ---- comparison and logic ---- *)
  | "gt" | "ge" | "lt" | "le" ->
      let vs, s = popn ctx n name 2 s in
      let b, a = (List.nth vs 0, List.nth vs 1) in
      let numish t = match t with Int | Real | Num -> true | _ -> false in
      let strish t = match t with Str | Name -> true | _ -> false in
      let ok t = t = Any || numish t || strish t in
      if not (ok a.t) then
        report ctx Type_clash n
          (Printf.sprintf "%s: expected number or string, got %s" name (ty_name a.t))
      else if not (ok b.t) then
        report ctx Type_clash n
          (Printf.sprintf "%s: expected number or string, got %s" name (ty_name b.t))
      else if (numish a.t && strish b.t) || (strish a.t && numish b.t) then
        report ctx Type_clash n
          (Printf.sprintf "%s: cannot compare %s with %s" name (ty_name a.t) (ty_name b.t));
      St (push (of_ty Bool) s)
  | "and" | "or" | "xor" | "not" ->
      let arity = if name = "not" then 1 else 2 in
      let vs, s = popn ctx n name arity s in
      List.iter
        (fun (v : av) ->
          match v.t with
          | Bool | Int | Num | Any -> ()
          | t ->
              report ctx Type_clash n
                (Printf.sprintf "%s: expected boolean or integer, got %s" name (ty_name t)))
        vs;
      let v =
        if List.for_all (fun (v : av) -> v.t = Bool) vs then of_ty Bool
        else if List.for_all (fun (v : av) -> v.t = Int) vs then of_ty Int
        else any
      in
      St (push v s)
  (* ---- control ---- *)
  | "exec" -> (
      let v, s = pop1 CAny s in
      match (v.t, v.c) with
      | Proc, Some (KP p) -> inline ctx n (St s) p
      | (Int | Real | Num | Bool | Dict | Mem | Loc | MarkT | Null | Arr), _ -> St (push v s)
      | _ -> Chaos)
  | "if" -> (
      let p, s = pop1 CProc s in
      let c, s = pop1 CBool s in
      ignore c;
      match p.c with
      | Some (KP body) ->
          let taken = inline ctx n (St s) body in
          join ctx n ~loop:false (St s) taken
      | _ -> if p.t = Proc || p.t = Any then Chaos else St s)
  | "ifelse" -> (
      let p2, s = pop1 CProc s in
      let p1, s = pop1 CProc s in
      let c, s = pop1 CBool s in
      ignore c;
      match (p1.c, p2.c) with
      | Some (KP b1), Some (KP b2) ->
          let s1 = inline ctx n (St s) b1 in
          let s2 = inline ctx n (St s) b2 in
          join ctx n ~loop:false s1 s2
      | _ -> Chaos)
  | "repeat" -> (
      let p, s = pop1 CProc s in
      let cnt, s = pop1 CInt s in
      (match cnt.c with
      | Some (KI k) when k < 0 -> report ctx Range n "repeat: negative count"
      | _ -> ());
      match p.c with
      | Some (KP body) -> run_loop ctx n (St s) body ~iter_push:[] ~infinite:false
      | _ -> Chaos)
  | "for" -> (
      let p, s = pop1 CProc s in
      let _, s = pop1 CNum s in
      let _, s = pop1 CNum s in
      let _, s = pop1 CNum s in
      match p.c with
      | Some (KP body) -> run_loop ctx n (St s) body ~iter_push:[ Num ] ~infinite:false
      | _ -> Chaos)
  | "loop" -> (
      let p, s = pop1 CProc s in
      match p.c with
      | Some (KP body) -> run_loop ctx n (St s) body ~iter_push:[] ~infinite:true
      | _ -> Chaos)
  | "forall" -> (
      let p, s = pop1 CProc s in
      let o, s =
        let vs, s = popn ctx n name 1 s in
        let v = List.hd vs in
        (match v.t with
        | Arr | Proc | Str | Name | Dict | Any -> ()
        | t ->
            report ctx Type_clash n
              (Printf.sprintf "forall: expected array, string or dict, got %s" (ty_name t)));
        (v, s)
      in
      match p.c with
      | Some (KP body) -> (
          match o.t with
          | Arr | Proc -> run_loop ctx n (St s) body ~iter_push:[ Any ] ~infinite:false
          | Str -> run_loop ctx n (St s) body ~iter_push:[ Int ] ~infinite:false
          | Dict -> run_loop ctx n (St s) body ~iter_push:[ Name; Any ] ~infinite:false
          | _ ->
              (* element shape unknown: still look inside the body *)
              analyze_poly ctx body;
              Chaos)
      | _ -> Chaos)
  | "exit" ->
      (match ctx.exit_collectors with
      | c :: _ -> c := St s :: !c
      | [] -> ());
      Diverged
  | "stop" ->
      ctx.saw_stop <- true;
      Diverged
  | "quit" -> Diverged
  | "stopped" -> (
      let p, s = pop1 CProc s in
      match p.c with
      | Some (KP body) -> (
          let saved = ctx.saw_stop in
          ctx.saw_stop <- false;
          let st' = inline ctx n (St s) body in
          let stopped_inside = ctx.saw_stop in
          ctx.saw_stop <- saved;
          if stopped_inside then Chaos
          else
            match st' with
            | St s' -> St (push (of_ty Bool) s')
            | other -> other)
      | _ -> Chaos)
  (* ---- dictionaries and scoping ---- *)
  | ">>" -> (
      match split_at_mark s with
      | Some (elems, rest) ->
          if List.length elems mod 2 <> 0 then
            report ctx Dict_access n ">>: odd number of key/value operands"
          else
            (* [elems] is top-first; keys sit at even offsets from the mark *)
            List.iteri
              (fun i (v : av) ->
                if i mod 2 = 0 && not (cls_admits CKey v.t) then
                  report ctx Dict_access n
                    (Printf.sprintf ">>: bad dictionary key of type %s" (ty_name v.t)))
              (List.rev elems);
          St (push (of_ty Dict) { s with items = rest })
      | None ->
          if s.base = Empty then begin
            report ctx Unmatched_mark n ">>: no mark on the stack";
            St (push (of_ty Dict) { s with items = [] })
          end
          else Chaos)
  | "]" -> (
      match split_at_mark s with
      | Some (_, rest) -> St (push (of_ty Arr) { s with items = rest })
      | None ->
          if s.base = Empty then begin
            report ctx Unmatched_mark n "]: no mark on the stack";
            St (push (of_ty Arr) { s with items = [] })
          end
          else Chaos)
  | "begin" ->
      let _, s = pop1 CDict s in
      ctx.scopes <- Hashtbl.create 8 :: ctx.scopes;
      St s
  | "end" ->
      (match ctx.scopes with
      | _ :: (_ :: _ as rest) -> ctx.scopes <- rest
      | _ -> ());
      St s
  | "def" -> (
      let v, s = pop1 CAny s in
      let k, s = pop1 CKey s in
      (match key_const k with
      | Some key -> (
          match ctx.scopes with sc :: _ -> Hashtbl.replace sc key v | [] -> ())
      | None -> ());
      St s)
  | "store" -> (
      let v, s = pop1 CAny s in
      let k, s = pop1 CKey s in
      (match key_const k with
      | Some key ->
          let rec go = function
            | [] -> (
                match ctx.scopes with sc :: _ -> Hashtbl.replace sc key v | [] -> ())
            | sc :: rest -> if Hashtbl.mem sc key then Hashtbl.replace sc key v else go rest
          in
          go ctx.scopes
      | None -> ());
      St s)
  | "load" -> (
      let k, s = pop1 CKey s in
      match key_const k with
      | Some key -> (
          match lookup ctx key with
          | Some b -> St (push b s)
          | None -> St (push any s))
      | None -> St (push any s))
  | "where" ->
      let _, _ = pop1 CKey s in
      Chaos
  (* ---- polymorphic get/put/length ---- *)
  | "get" -> (
      let k, s = pop1 CAny s in
      let o, s =
        let vs, s = popn ctx n name 1 s in
        (List.hd vs, s)
      in
      match o.t with
      | Dict ->
          chk ctx n "get" CKey k;
          St (push any s)
      | Arr | Proc ->
          chk ctx n "get" CInt k;
          (match k.c with
          | Some (KI i) when i < 0 -> report ctx Range n "get: negative index"
          | _ -> ());
          St (push any s)
      | Str ->
          chk ctx n "get" CInt k;
          St (push (of_ty Int) s)
      | Any -> St (push any s)
      | t ->
          report ctx Type_clash n
            (Printf.sprintf "get: expected dict, array or string, got %s" (ty_name t));
          St (push any s)
  )
  | "put" -> (
      let _, s = pop1 CAny s in
      let k, s =
        let vs, s = popn ctx n name 1 s in
        (List.hd vs, s)
      in
      let o, s =
        let vs, s = popn ctx n name 1 s in
        (List.hd vs, s)
      in
      match o.t with
      | Dict ->
          chk ctx n "put" CKey k;
          St s
      | Arr | Proc ->
          chk ctx n "put" CInt k;
          St s
      | Str | Name ->
          report ctx Dict_access n "put: strings are immutable in this dialect";
          St s
      | Any -> St s
      | t ->
          report ctx Type_clash n
            (Printf.sprintf "put: expected dict or array, got %s" (ty_name t));
          St s)
  | "length" ->
      let o, s =
        let vs, s = popn ctx n name 1 s in
        (List.hd vs, s)
      in
      (match o.t with
      | Dict | Arr | Proc | Str | Name | Any -> ()
      | t ->
          report ctx Type_clash n
            (Printf.sprintf "length: expected dict, array or string, got %s" (ty_name t)));
      St (push (of_ty Int) s)
  (* ---- arrays ---- *)
  | "array" ->
      let v, s = pop1 CInt s in
      (match v.c with
      | Some (KI k) when k < 0 -> report ctx Range n "array: negative length"
      | _ -> ());
      St (push (of_ty Arr) s)
  | "aload" | "astore" ->
      let _, _ = pop1 CArr s in
      Chaos
  (* ---- conversions ---- *)
  | "cvi" | "cvr" ->
      let v, s =
        let vs, s = popn ctx n name 1 s in
        (List.hd vs, s)
      in
      (match v.t with
      | Int | Real | Num | Str | Any -> ()
      | t ->
          report ctx Type_clash n
            (Printf.sprintf "%s: expected number or string, got %s" name (ty_name t)));
      St (push (of_ty (if name = "cvi" then Int else Real)) s)
  | "cvx" ->
      let v, s = pop1 CAny s in
      let v = if v.t = Arr then { v with t = Proc } else v in
      St (push v s)
  | "cvlit" ->
      let v, s = pop1 CAny s in
      let v = if v.t = Proc then { t = Arr; c = None } else v in
      St (push v s)
  (* ---- debugging extensions needing constants ---- *)
  | "Absolute" ->
      let sp, s = pop1 CStr s in
      let _, s = pop1 CInt s in
      (match sp.c with
      | Some (KS str) when String.length str <> 1 ->
          report ctx Range n (Printf.sprintf "Absolute: bad space (%s)" str)
      | _ -> ());
      St (push (of_ty Loc) s)
  | "ImmediateCell" ->
      let v, s = pop1 CInt s in
      (match v.c with
      | Some (KI w) when w < 1 || w > 16 ->
          report ctx Range n "ImmediateCell: width out of range"
      | _ -> ());
      St (push (of_ty Loc) s)
  | _ -> assert false

(** The constant key text of a [def]/[store]/[load] operand, when known. *)
and key_const (k : av) : string option =
  match k.c with
  | Some (KS s) -> Some s
  | Some (KI i) -> Some (string_of_int i)
  | Some (KB b) -> Some (string_of_bool b)
  | _ -> None

(* --- entry points ----------------------------------------------------------- *)

(** Check a program.  [deep] additionally analyzes, polymorphically, every
    procedure literal that was stored but never executed during the
    toplevel pass (symbol-table [where] clauses, printing procedures).
    The environment accumulates definitions, so several sources can be
    checked in sequence against one [env]. *)
let check_program ?env ?(deep = false) ?(name = "%pslint") (src : string) : finding list =
  let env = match env with Some e -> e | None -> base_env () in
  let ctx =
    {
      findings = [];
      seen = Hashtbl.create 32;
      scopes = env.env_scopes;
      inline_stack = [];
      analyzed = Hashtbl.create 64;
      exit_collectors = [];
      saw_stop = false;
      file = name;
    }
  in
  let f = Value.file_of_string name src in
  (try
     let prog = Past.parse_file f in
     ignore (run ctx empty_state prog);
     if deep then
       List.iter (fun p -> analyze_poly ctx p) (Past.all_procs prog)
   with Value.Error (err_name, detail) ->
     let line, col = Value.file_token_pos f in
     let fnd =
       { Ldb_util.Posfinding.kind = Syntax; file = name; line; col;
         msg = err_name ^ ": " ^ detail }
     in
     ctx.findings <- fnd :: ctx.findings);
  env.env_scopes <- ctx.scopes;
  List.rev ctx.findings

(** Base + the shared prelude processed (its definitions in scope). *)
let prelude_env () =
  let env = base_env () in
  ignore (check_program ~env ~name:"%prelude" Ldb_pscript.Prelude.source);
  env

(** What the debugger binds before symbol tables or expression code run:
    the machine-dependent PostScript names, the per-target operators, and
    the per-frame context. *)
let declare_debugger env =
  declare env "Regset0" (v_str ~k:"r" ());
  declare env "Fregset" (v_str ~k:"f" ());
  declare env "Xregset" (v_str ~k:"x" ());
  declare env "FrameLoc" (v_sig [ CInt ] [ Loc ]);
  declare env "FloatFetch" (v_sig [ CLoc; CMem ] [ Real ]);
  declare env "FloatStore" (v_sig [ CNum; CLoc; CMem ] []);
  declare env "NumRegs" (of_ty Int);
  declare env "RegName" (v_sig [ CInt ] [ Str ]);
  declare env "LazyData" (v_sig [ CInt; CStr ] [ Loc ]);
  declare env "GlobalLoc" (v_sig [ CStr ] [ Loc ]);
  declare env "GlobalCodeLoc" (v_sig [ CStr ] [ Loc ]);
  declare env "GlobalAddr" (v_sig [ CStr ] [ Int ]);
  declare env "FrameBase" (of_ty Int);
  declare env "FrameMem" (of_ty Mem)

(* The prelude is analysed once per process; callers get private copies
   of its scopes, so definitions they check never leak into the next. *)
let debugger_template =
  lazy
    (let env = prelude_env () in
     declare_debugger env;
     env)

let debugger_env () =
  { env_scopes = List.map Hashtbl.copy (Lazy.force debugger_template).env_scopes }

(** Check one symbol-table body the way the compiler and the debugger
    both do before trusting it: deep, against the debugger's names, with
    each finding rendered as [file:line:col: kind: msg]. *)
let check_table ~(unit_name : string) (body : string) : string list =
  List.map (Ldb_util.Posfinding.to_string kind_name)
    (check_program ~env:(debugger_env ()) ~deep:true ~name:(unit_name ^ ":pstab") body)
