//! A distribution's or jam's dependences are carried over from its
//! parent's by `Shape::apply`, not analysed afresh. Each such matrix must
//! equal a fresh analysis of the shape's program, as a whole: the same
//! columns in the same order, with the same systems. `inl_poly::cache::
//! clear()` empties the analysis memo first, so `analyze` cannot answer
//! with the matrix `Shape::apply` stored there.

use inl_core::depend::analyze;
use inl_core::recipe::{Shape, Step};
use inl_ir::zoo;

#[test]
fn every_mapped_matrix_is_the_analysis_of_its_program() {
    let mut mapped = Vec::new();
    for (name, build) in zoo::ALL {
        let source = Shape::source(build()).expect("analysis");
        for step in Step::candidates(&source.program) {
            let Some(shape) = source.apply(&step).expect("applies") else {
                continue;
            };
            inl_poly::cache::clear();
            let fresh = analyze(&shape.program, &shape.layout).expect("analysis");
            assert_eq!(shape.deps, fresh, "{name} {step}");
            mapped.push(format!("{name} {step}"));
        }
    }
    assert_eq!(
        mapped,
        [
            "running_example dist(I@1)",
            "running_example dist(J@1)",
            "cholesky_kij jam(I+J)",
            "lu_kij jam(I+I2)",
            "independent_pair dist(I@1)",
        ]
    );
}
