"""ENFrame's user language: parsing, validation, execution, translation."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".grammar": ("UserProgram",),
        ".interpreter": ("Externals", "Interpreter", "run_program"),
        ".labels": ("LabelGenerator", "example3_trace"),
        ".parser": ("UserSyntaxError", "parse_program"),
        ".translate": (
            "TranslationError",
            "TranslationExternals",
            "Translator",
            "dataset_externals",
            "translate_source",
        ),
        ".validator": ("ValidationError", "validate_program"),
    },
)
