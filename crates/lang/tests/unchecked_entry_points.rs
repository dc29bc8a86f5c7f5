//! Every public pass that assumes a well-typed program answers an
//! ill-typed one with its type errors instead of panicking on a name
//! lookup: the program below parses, but assigns a global no
//! declaration introduces.

use pol_lang::{analyze, backend, gas, lint, LangError};

const GHOST_SRC: &str = r"
    contract ghostly {
        participant Creator { cap: uint }
        global left: uint = field(cap) view;
        phase run while left > 0 invariant left >= 0 {
            api f(v: uint) -> left {
                ghost = v;
            }
        }
    }
";

fn assert_type_errors<T: std::fmt::Debug>(entry: &str, result: Result<T, LangError>) {
    match result {
        Err(LangError::TypeErrors(diags)) => {
            assert!(diags.iter().any(|d| d.code == "E0010"), "{entry}: {diags:?}")
        }
        other => panic!("{entry}: expected type errors, got {other:?}"),
    }
}

#[test]
fn public_entry_points_return_type_errors_for_an_unchecked_program() {
    let program = pol_lang::parse(GHOST_SRC).expect("parses");
    assert!(!pol_lang::check::check(&program).is_empty(), "the program must fail the checker");
    let api = &program.phases[0].apis[0];

    assert_type_errors("gas::certify", gas::certify(&program));
    assert_type_errors("analyze::analyze", analyze::analyze(&program));
    assert_type_errors("backend::compile", backend::compile(&program));
    assert_type_errors("evm::compile", backend::evm::compile(&program));
    assert_type_errors("evm::compile_with_pad", backend::evm::compile_with_pad(&program, 0));
    assert_type_errors("avm::compile", backend::avm::compile(&program));
    assert_type_errors("evm::api_fragment", backend::evm::api_fragment(&program, 0, api));
    assert_type_errors("avm::api_fragment", backend::avm::api_fragment(&program, 0, api));

    let diags = lint::lint(&program);
    assert!(!diags.is_empty() && diags.iter().all(|d| d.code.starts_with('E')), "{diags:?}");
    assert!(diags.iter().any(|d| d.code == "E0010"), "{diags:?}");
}
