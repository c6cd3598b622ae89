"""The typed config registry: profiles, validation, dict round-trips."""

from __future__ import annotations

import pytest

from repro.registry import (
    PROFILES,
    TABLE3_METHODS,
    MethodConfig,
    build_method,
    config_class,
    make_method,
    method_names,
)


class TestBuildMethod:
    def test_every_registered_name_buildable_from_dict(self):
        for name in method_names():
            method = build_method({"name": name, "profile": "fast"})
            assert hasattr(method, "fit") and hasattr(method, "score")
            assert method._method_config is not None

    def test_table3_methods_registered(self):
        assert set(TABLE3_METHODS) <= set(method_names())

    def test_dict_seed_and_profile_keys(self):
        method = build_method({"name": "NeuMF", "profile": "fast", "seed": 7})
        assert method.seed == 7
        assert method.epochs == 5  # fast preset applied

    def test_override_beats_profile_preset(self):
        method = build_method({"name": "NeuMF", "epochs": 2}, profile="fast")
        assert method.epochs == 2

    def test_plain_name_string(self):
        method = build_method("Popularity", seed=3)
        assert method.seed == 3

    def test_unknown_method_lists_known(self):
        with pytest.raises(KeyError, match="MetaDPA"):
            build_method({"name": "nope"})

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="turbo"):
            build_method({"name": "MeLU", "profile": "turbo"})

    def test_unknown_config_key_lists_valid_fields(self):
        with pytest.raises(ValueError) as exc_info:
            build_method({"name": "MetaDPA", "cvae_epochsss": 3})
        message = str(exc_info.value)
        assert "cvae_epochsss" in message
        assert "cvae_epochs" in message  # the helpful part: valid fields listed

    def test_missing_name_key(self):
        with pytest.raises(ValueError, match="name"):
            build_method({"profile": "fast"})

    def test_config_object_accepted(self):
        config = config_class("NeuMF").from_dict({"epochs": 3})
        method = build_method(config, seed=1)
        assert method.epochs == 3 and method.seed == 1

    @pytest.mark.parametrize(
        "setting",
        [
            {"cvae_lr": float("nan")},
            {"cvae_lr": float("inf")},
            {"cvae_epochs": 0},
            {"beta1": float("nan")},
            {"beta1": -1.0},
            {"beta2": float("inf")},
        ],
    )
    @pytest.mark.parametrize("profile", [None, "fast"])
    def test_bad_cvae_settings_fail_at_build(self, setting, profile):
        """A NaN ``cvae_lr`` used to build, and ``fit`` then completed with
        NaN augmented matrices and NaN meta-parameters.  A NaN, negative or
        infinite constraint weight built too, and failed only at ``fit``."""
        with pytest.raises(ValueError):
            build_method({"name": "MetaDPA", "profile": profile, **setting})


class TestMethodConfig:
    def test_to_dict_round_trip(self):
        cls = config_class("MetaDPA")
        config = cls.from_dict({"cvae_epochs": 60, "hidden_dims": [16, 8]})
        restored = cls.from_dict(config.to_dict())
        assert restored == config
        assert restored.hidden_dims == (16, 8)  # lists coerced back to tuples

    def test_profiles_known(self):
        assert PROFILES == ("full", "fast")
        for name in method_names():
            cls = config_class(name)
            assert set(cls.profiles) <= set(PROFILES)
            for preset in cls.profiles.values():
                assert set(preset) <= set(cls.field_names())

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            MethodConfig().build()


class TestAblationVariants:
    def test_variant_configs(self):
        me_only = make_method("MetaDPA-ME", profile="fast")
        mdi_only = make_method("MetaDPA-MDI", profile="fast")
        assert me_only.config.beta1 == 0.0 and me_only.config.beta2 > 0
        assert mdi_only.config.beta2 == 0.0 and mdi_only.config.beta1 > 0
        no_aug = make_method("MetaDPA-NoAug", profile="fast")
        assert not no_aug.config.use_augmentation

    def test_variants_inherit_fast_preset(self):
        method = make_method("MetaDPA-ME", profile="fast")
        assert method.config.cvae_epochs == 60 and method.config.meta_epochs == 6
